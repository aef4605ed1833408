"""Byte lock on the draw paths the CLI digests do not reach: Haar-message
trials under every station config, a circuit that ends in a polarizer, and
CHSH scans with a pair binning, each at seeds 5 and 2**63 + 11.

Recorded digests live in data/draw_path_digests.json; rewrite them with
`PYTHONPATH=src python tests/test_draw_paths.py --record` (only when a
change of draw order is intended).
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

import teleoptics
from teleoptics.bellmode import BINNING_CLASSES, chsh_scan, default_scan_config
from teleoptics.dsl import compile_and_run, parse
from teleoptics.events import fmt17
from teleoptics.sampling import DetectorModel, StationConfig, run_trials

DATA = Path(__file__).parent / "data" / "draw_path_digests.json"
FIG1 = Path(teleoptics.__file__).parent / "circuits" / "fig1.opt"
SEEDS = (5, 2**63 + 11)
TRIALS = 300

STATIONS = {
    "none": StationConfig(correction=True, verifier=None),
    "parallel": StationConfig(correction=True, verifier="parallel"),
    "merged": StationConfig(correction=False, verifier="merged"),
    "direct": StationConfig(correction=False, verifier="direct"),
}


def _record_line(record) -> str:
    psi = ("-" if record.psi is None else
           " ".join(fmt17(x) for x in (record.psi.alpha.real, record.psi.alpha.imag,
                                       record.psi.beta.real, record.psi.beta.imag)))
    plan = ("-" if record.correction is None else
            f"{int(record.correction.fire_c1)}{int(record.correction.fire_c2)}")
    return (f"{record.trial},{psi},{record.outcome},{plan},"
            f"{record.verifier_setting},{record.passed}\n")


def _records_text(records) -> str:
    return "".join(_record_line(r) for r in records)


def _haar(station: str, seed: int) -> str:
    return _records_text(
        run_trials(None, TRIALS, DetectorModel(0.85), seed, STATIONS[station]))


def _polarizer_circuit(seed: int) -> str:
    text = FIG1.read_text(encoding="utf-8") + "polarizer 2 o 0.6 0 0.8 0\n"
    program = parse(text).program
    return _records_text(compile_and_run(program, trials=TRIALS, seed=seed, eta=0.85).records)


def _chsh(seed: int) -> str:
    config = default_scan_config()
    lines = []
    for binning in ((BINNING_CLASSES[0], BINNING_CLASSES[2]),
                    (BINNING_CLASSES[1], BINNING_CLASSES[0])):
        for eta in (1.0, 0.6):
            result = chsh_scan(config.encodings, config.settings, binning=binning,
                               eta=eta, n_trials=TRIALS, seed=seed)
            values = [result.empirical_s, result.stderr,
                      *result.empirical_correlators.reshape(4)]
            lines.append(f"{result.n_kept}," + ",".join(fmt17(v) for v in values) + "\n")
    return "".join(lines)


CASES = {
    **{f"haar-{station}-seed{seed}": (lambda s=station, n=seed: _haar(s, n))
       for station in STATIONS for seed in SEEDS},
    **{f"dsl-polarizer-seed{seed}": (lambda n=seed: _polarizer_circuit(n))
       for seed in SEEDS},
    **{f"chsh-pair-binning-seed{seed}": (lambda n=seed: _chsh(n)) for seed in SEEDS},
}


def _digest(name: str) -> str:
    return hashlib.sha256(CASES[name]().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_draw_path_matches_recorded_digest(name):
    assert _digest(name) == json.loads(DATA.read_text())[name]


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    DATA.write_text(json.dumps({name: _digest(name) for name in sorted(CASES)},
                               indent=2) + "\n")
