"""Record the sha256 of every fixed-message output file into golden.json.

    python3 bench/record_golden.py

Run it only at a commit whose outputs are known good: every later
benchmark run checks its fixed-message outputs against these digests, for
seeds 0..GOLDEN_SEEDS-1, and reports any other seed's digests as unchecked.
"""

from __future__ import annotations

import json
import shutil

import run

#: Workload seeds with recorded digests: 0..GOLDEN_SEEDS-1.
GOLDEN_SEEDS = 100


def main() -> int:
    run.import_package()
    import workloads

    workdir = run.OUT / "golden"
    workdir.mkdir(parents=True, exist_ok=True)
    digests = {}
    try:
        for seed in range(GOLDEN_SEEDS):
            workload = workloads.FixedMessage(seed, workdir, golden=None)
            failed = [exc for exc in workload.run_commands() if exc is not None]
            if failed:
                raise SystemExit(f"seed {seed}: {failed[0]}")
            digests[str(seed)] = workload.output_digests()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.GOLDEN.write_text(json.dumps({"trials_per_command": workloads.CLI_TRIALS,
                                      "digests": digests}, indent=1) + "\n",
                          encoding="utf-8")
    print(f"wrote {len(digests)} seeds to {run.GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
