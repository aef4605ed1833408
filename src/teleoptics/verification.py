"""Statistical verification of the teleported state.

Three check styles, strongest first:

* full:   corrections run, one polarizer aligned with the message. Every
          kept trial should pass.
* merged: no corrections; the decoded beam meets a polarizer whose axis is
          drawn per trial from the four possible branch states. Matched
          setting/outcome cells pass with certainty, mismatched cells pass
          at the overlap of the two branch states.
* direct: same idea before the decoder, as a projective check on the two
          direction rails. Decoding is unitary, so its cell table must
          coincide with the merged one; tests exploit that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import SimulationError
from .protocol import (
    OUTCOMES,
    branch_states_dual_rail,
    branch_states_polarization,
)
from .sampling import DetectorModel, EventRecord, StationConfig, run_trials
from .states import JonesVector

#: Cell key for runs without a per-trial setting (the full protocol).
NO_SETTING = 0


@dataclass(frozen=True)
class CellStats:
    """Kept-trial tally for one (setting, outcome) cell."""

    count: int
    passes: int

    @property
    def rate(self) -> float | None:
        return self.passes / self.count if self.count else None

    def stderr(self) -> float | None:
        """Binomial standard error of the rate estimate."""
        r = self.rate
        if r is None:
            return None
        return math.sqrt(max(r * (1.0 - r), 0.0) / self.count)


@dataclass(frozen=True)
class SubensembleReport:
    """Pass statistics grouped by verifier setting and analyzer outcome."""

    variant: str
    n_trials: int
    n_lost: int
    cells: Mapping[tuple[int, str], CellStats]

    def pass_rate(self, setting: int, outcome: str) -> float | None:
        stats = self.cells.get((setting, outcome))
        return stats.rate if stats else None

    def matched_cells(self) -> tuple[tuple[int, str], ...]:
        """Cells where the checked axis targets the observed branch."""
        if self.variant == "full":
            return tuple((NO_SETTING, out.value) for out in OUTCOMES)
        return tuple((out.index + 1, out.value) for out in OUTCOMES)

    def matched_pass_rate(self) -> float | None:
        count = passes = 0
        for key in self.matched_cells():
            stats = self.cells.get(key)
            if stats:
                count += stats.count
                passes += stats.passes
        return passes / count if count else None

    def empirical_table(self) -> np.ndarray:
        """4x4 rates indexed [setting-1, outcome]; NaN marks empty cells."""
        table = np.full((4, 4), np.nan)
        for k in range(1, 5):
            for out in OUTCOMES:
                rate = self.pass_rate(k, out.value)
                if rate is not None:
                    table[k - 1, out.index] = rate
        return table


def _fidelity_matrix(states: Sequence[np.ndarray]) -> np.ndarray:
    table = np.empty((len(states), len(states)))
    for i, u in enumerate(states):
        for j, v in enumerate(states):
            table[i, j] = abs(complex(np.vdot(u, v))) ** 2
    return table


def overlap_table(psi: JonesVector) -> np.ndarray:
    """Pairwise fidelities of the four decoded branch states."""
    return _fidelity_matrix([s.as_array() for s in branch_states_polarization(psi)])


def overlap_table_direct(psi: JonesVector) -> np.ndarray:
    """Pairwise fidelities of the four direction-rail branch states."""
    return _fidelity_matrix(list(branch_states_dual_rail(psi)))


def expected_rate_table(psi: JonesVector, variant: str) -> np.ndarray:
    """Predicted pass rate per (setting, outcome) cell for a variant."""
    if variant == "full":
        return np.ones((4, 4))
    if variant == "merged":
        return overlap_table(psi)
    if variant == "direct":
        return overlap_table_direct(psi)
    raise SimulationError(f"unknown variant {variant!r}")


def _station_config(variant: str,
                    axis_override: JonesVector | None) -> StationConfig:
    verifiers = {"full": "parallel", "merged": "merged", "direct": "direct"}
    if variant not in verifiers:
        raise SimulationError(f"unknown variant {variant!r}")
    return StationConfig(correction=variant == "full", verifier=verifiers[variant],
                         axis_override=axis_override)


def build_report(variant: str, records: Sequence[EventRecord]) -> SubensembleReport:
    counts: dict[tuple[int, str], list[int]] = {}
    n_lost = 0
    for record in records:
        if record.outcome is None:
            n_lost += 1
            continue
        setting = record.verifier_setting if record.verifier_setting is not None else NO_SETTING
        cell = counts.setdefault((setting, record.outcome), [0, 0])
        cell[0] += 1
        if record.passed:
            cell[1] += 1
    cells = {key: CellStats(c, p) for key, (c, p) in sorted(counts.items())}
    return SubensembleReport(variant, len(records), n_lost, cells)


def run_verification(psi: JonesVector, n_trials: int, eta: float, seed: int,
                     variant: str, axis_override: JonesVector | None = None
                     ) -> tuple[list[EventRecord], SubensembleReport]:
    records = run_trials(
        psi,
        n_trials,
        DetectorModel(eta),
        seed,
        _station_config(variant, axis_override),
    )
    return records, build_report(variant, records)


def verify_full(psi: JonesVector, n_trials: int, eta: float, seed: int,
                axis_override: JonesVector | None = None) -> SubensembleReport:
    """Corrected run against a message-aligned (or overridden) polarizer."""
    return run_verification(psi, n_trials, eta, seed, "full", axis_override)[1]


def verify_nonlocal(psi: JonesVector, n_trials: int, eta: float, seed: int
                    ) -> SubensembleReport:
    """Uncorrected run with per-trial branch-state polarizer settings."""
    return run_verification(psi, n_trials, eta, seed, "merged")[1]


def verify_direct(psi: JonesVector, n_trials: int, eta: float, seed: int
                  ) -> SubensembleReport:
    """Uncorrected run checked on the bare direction rails."""
    return run_verification(psi, n_trials, eta, seed, "direct")[1]
