"""Trial-level Monte Carlo over analyzer outcomes, loss, and polarizer checks.

Randomness discipline: every trial owns a child stream spawned from the run
seed and the trial index, so results are independent of execution order and
identical across processes. Within a trial the draw order is fixed:
message (if random), verifier setting (if random), loss, outcome, polarizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SimulationError
from .protocol import CorrectionPlan, OUTCOMES, OutcomeId, branch_set, correction_plan
from .states import JonesVector, random_jones

#: Pass probabilities this close to 0 or 1 are snapped exact, so analytically
#: certain checks never fail from float rounding in the projection.
CERTAINTY_SNAP = 1e-12


@dataclass(frozen=True)
class DetectorModel:
    """Heralding efficiency of the analyzer arm; 1.0 means lossless."""

    efficiency: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.efficiency <= 1.0:
            raise SimulationError(
                f"efficiency must lie in [0, 1], got {self.efficiency!r}"
            )


@dataclass(frozen=True)
class RandomStream:
    """Named substream: (seed, index) -> independent generator."""

    seed: int
    index: int

    def generator(self) -> np.random.Generator:
        return np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=(self.index,)))
        )


def trial_stream(seed: int, trial: int) -> np.random.Generator:
    """The child stream of trial `trial` under run seed `seed`; both must
    be non-negative."""
    if seed < 0 or trial < 0:
        raise SimulationError(
            f"seed and trial index must be non-negative, got {seed!r}, {trial!r}")
    return RandomStream(seed, trial).generator()


def _snap(p: float) -> float:
    if p < CERTAINTY_SNAP:
        return 0.0
    if p > 1.0 - CERTAINTY_SNAP:
        return 1.0
    return p


def sample_branch_index(probabilities: Sequence[float],
                        detector: DetectorModel,
                        rng: np.random.Generator) -> int | None:
    """Loss draw, then a categorical draw over branch indices.

    Returns None on loss. Both draws happen unconditionally and in this
    order, so the stream state after a trial is identical for every
    efficiency value; that is what makes kept-trial sets nest as
    efficiency falls under a common seed.
    """
    lost = float(rng.random()) >= detector.efficiency
    u = float(rng.random())
    if lost:
        return None
    total = float(sum(probabilities))
    if not abs(total - 1.0) <= 1e-9:
        raise SimulationError(f"branch probabilities sum to {total!r}, expected 1")
    acc = 0.0
    for i, p in enumerate(probabilities):
        acc += p
        if u < acc:
            return i
    return len(probabilities) - 1


def sample_outcome(table, detector: DetectorModel,
                   rng: np.random.Generator) -> OutcomeId | None:
    """Sample one detector click from a branch table; None means lost."""
    index = sample_branch_index(table.probabilities, detector, rng)
    if index is None:
        return None
    return OutcomeId(table.labels[index])


def projection_pass(state: np.ndarray, axis: np.ndarray,
                    rng: np.random.Generator) -> bool:
    """Bernoulli draw for a projective check of `state` onto `axis`."""
    p = _snap(abs(complex(np.vdot(axis, state))) ** 2)
    return bool(rng.random() < p)


def polarizer_pass(state: JonesVector, axis: JonesVector,
                   rng: np.random.Generator) -> bool:
    return projection_pass(state.as_array(), axis.as_array(), rng)


@dataclass(frozen=True)
class StationConfig:
    """What happens on the receiving side of each trial.

    correction: run the heralded correction cells.
    verifier: None, or one of
        "parallel": polarizer along the message itself (needs correction),
        "merged":   polarizer on the decoded beam, axis picked per trial
                    from the four uncorrected branch states,
        "direct":   projective check on the two bare direction rails.
    axis_override: fixed polarizer axis replacing the parallel choice.
    """

    correction: bool = True
    verifier: str | None = None
    axis_override: JonesVector | None = None

    def __post_init__(self) -> None:
        if self.verifier not in (None, "parallel", "merged", "direct"):
            raise SimulationError(f"unknown verifier {self.verifier!r}")
        if self.verifier in ("merged", "direct") and self.correction:
            raise SimulationError(
                f"verifier {self.verifier!r} watches uncorrected states; "
                "disable correction"
            )
        if self.axis_override is not None and self.verifier != "parallel":
            raise SimulationError("axis_override applies to the parallel verifier only")


@dataclass(frozen=True)
class EventRecord:
    """One trial. Lost trials carry no correction or verification fields."""

    trial: int
    psi: JonesVector | None
    outcome: str | None
    correction: CorrectionPlan | None
    verifier_setting: int | None
    passed: bool | None

    def __post_init__(self) -> None:
        if self.outcome is None and (self.correction is not None or self.passed is not None):
            raise SimulationError("lost trials cannot carry corrections or checks")

    @property
    def lost(self) -> bool:
        return self.outcome is None


def run_trials(psi: JonesVector | None, n_trials: int, detector: DetectorModel,
               seed: int, stations: StationConfig) -> list[EventRecord]:
    """Simulate `n_trials` heralded rounds.

    psi=None draws a fresh Haar-random message every trial; a fixed psi is
    read off `branch_set` once and reused.
    """
    if n_trials < 1:
        raise SimulationError(f"n_trials must be positive, got {n_trials!r}")
    fixed_branches = branch_set(psi) if psi is not None else None
    records: list[EventRecord] = []
    for trial in range(n_trials):
        rng = trial_stream(seed, trial)
        if fixed_branches is None:
            message = random_jones(rng)
            branches = branch_set(message)
        else:
            message = psi
            branches = fixed_branches
        setting = None
        if stations.verifier in ("merged", "direct"):
            setting = int(rng.integers(1, 5))
        index = sample_branch_index(branches.probabilities, detector, rng)
        if index is None:
            records.append(EventRecord(trial, message, None, None, setting, None))
            continue
        outcome = OUTCOMES[index]
        plan = correction_plan(outcome) if stations.correction else None
        passed = None
        if stations.verifier == "parallel":
            axis = stations.axis_override if stations.axis_override is not None else message
            passed = polarizer_pass(branches.corrected[index], axis, rng)
        elif stations.verifier == "merged":
            assert setting is not None
            passed = polarizer_pass(branches.decoded[index],
                                    branches.decoded[setting - 1], rng)
        elif stations.verifier == "direct":
            assert setting is not None
            passed = projection_pass(branches.rails[index],
                                     branches.rails[setting - 1], rng)
        records.append(
            EventRecord(trial, message, outcome.value, plan, setting, passed)
        )
    return records


def outcome_counts(records: Sequence[EventRecord]) -> dict[str, int]:
    """Counts keyed by outcome label, with lost trials under "lost"."""
    counts: dict[str, int] = {out.value: 0 for out in OUTCOMES}
    counts["lost"] = 0
    for record in records:
        counts[record.outcome if record.outcome is not None else "lost"] += 1
    return counts
