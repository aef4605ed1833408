"""Checks of the benchmark itself, run from the repository root:

    python3 bench/selfcheck.py

1. Every workload, untraced and traced, prints exactly the metrics that
   BENCHMARK.json names, each with its unit, and passes its own checks.
2. A corrupted golden digest makes error_rate greater than 0, untraced
   and traced.
3. A perturbed exact reference makes error_rate greater than 0 on every
   workload.
4. A circuit text that carries a stale `jones` literal, not its message's,
   makes error_rate greater than 0 on every workload.

Runs are short (1 s untraced, one set-up probe). Exits 1 if a check fails.
"""

from __future__ import annotations

import json
import math

import run

run.import_package()
import workloads  # noqa: E402  (needs the package on the path)

SEED = 0
#: fig1.opt's own message literal, which no workload's messages carry.
STALE_LITERAL = (0.6, 0.0, 0.8, 0.0)


def printed(result: dict) -> dict:
    """The JSON object the printer puts on the last line."""
    return json.loads(run.report(result, "").splitlines()[-1])


def bench(name: str, trace: bool, **overrides) -> dict:
    return printed(run.run(name, SEED, 1.0, trace, setup_repeats=1, **overrides))


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"[{'PASS' if ok else 'FAIL'}] {what}")
        if not ok:
            failures.append(what)

    for name in run.WORKLOAD_NAMES:
        for trace in (False, True):
            out = bench(name, trace)
            units = {key: value["unit"] for key, value in out["metrics"].items()}
            check(units == expected[trace],
                  f"{name} trace={int(trace)}: prints every metric with its unit")
            check(all(math.isfinite(v["value"]) for v in out["metrics"].values()),
                  f"{name} trace={int(trace)}: every value is a finite number")
            check(out["correct"] and out["failed"] == 0 and out["attempted"] > 0,
                  f"{name} trace={int(trace)}: correct, {out['attempted']} attempted")

    corrupted = dict(run.load_golden(SEED))
    corrupted["teleport-jsonl"] = "0" * 64
    for trace in (False, True):
        out = bench("fixed-message", trace, golden=corrupted)
        check(out["failed"] > 0 and not out["correct"],
              f"corrupted golden digest, trace={int(trace)}: "
              f"{out['failed']} of {out['attempted']} failed")

    perturbed = {
        "branch probability": workloads.Reference(branch_probability=0.25 + 1e-9),
        "CHSH S": workloads.Reference(chsh_s=2.0 * math.sqrt(2.0) + 1e-9),
    }
    for label, ref in perturbed.items():
        names = run.WORKLOAD_NAMES if label == "branch probability" else ("bell-sweep",)
        for name in names:
            out = bench(name, False, ref=ref)
            check(out["failed"] > 0 and not out["correct"],
                  f"perturbed {label} reference, {name}: "
                  f"{out['failed']} of {out['attempted']} failed")

    make_message = workloads.make_message

    def stale_circuit(template, components):
        """The message, with a circuit text that carries another message."""
        return workloads.Message(make_message(template, components).psi,
                                 make_message(template, STALE_LITERAL).text)

    workloads.make_message = stale_circuit
    try:
        for name in run.WORKLOAD_NAMES:
            out = bench(name, False)
            check(out["failed"] > 0 and not out["correct"],
                  f"stale circuit literal, {name}: "
                  f"{out['failed']} of {out['attempted']} failed")
    finally:
        workloads.make_message = make_message

    print(f"{len(failures)} self-check(s) failed" if failures else "all self-checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
