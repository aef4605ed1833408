"""Trial-level Monte Carlo over analyzer outcomes, loss, and polarizer checks.

`sample_trials` is the package's one trial loop: `run_trials`, the CHSH
scan and the circuit runtime all draw through it, and no other module
spawns or draws from a trial stream. Each trial owns a child stream spawned
from the run seed and the trial index, so results depend on neither
execution order nor process. Within a trial the draw order is fixed: the
caller's pre-draws (message if random, then verifier setting if random; or
the CHSH encoding, then setting), loss, cell, and, on a kept trial whose
station checks it, one polarizer draw. Loss and cell are drawn on every
trial, so kept-trial sets nest as efficiency falls under one seed.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import SimulationError
from .protocol import BranchSet, CorrectionPlan, OUTCOMES, branch_set, correction_plan
from .states import JonesVector, random_jones

#: Pass probabilities this close to 0 or 1 are snapped exact, so analytically
#: certain checks never fail from float rounding in the projection.
CERTAINTY_SNAP = 1e-12


@dataclass(frozen=True)
class DetectorModel:
    """Heralding efficiency of the analyzer arm; 1.0 means lossless."""

    efficiency: float = 1.0

    def __post_init__(self) -> None:
        try:
            in_range = 0.0 <= self.efficiency <= 1.0
        except TypeError:
            in_range = False
        if not in_range:
            raise SimulationError(
                f"efficiency must lie in [0, 1], got {self.efficiency!r}"
            )


def _whole(name: str, value, minimum: int) -> int:
    """`value` as a Python int of at least `minimum`; numpy integers pass."""
    try:
        value = operator.index(value)
    except TypeError:
        raise SimulationError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise SimulationError(f"{name} must be at least {minimum}, got {value!r}")
    return value


def trial_stream(seed: int, trial: int) -> np.random.Generator:
    """The child stream of trial `trial` under run seed `seed`; both must
    be non-negative integers."""
    seed, trial = _whole("seed", seed, 0), _whole("trial", trial, 0)
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(trial,))))


def _snap(p: float) -> float:
    if p < CERTAINTY_SNAP:
        return 0.0
    if p > 1.0 - CERTAINTY_SNAP:
        return 1.0
    return p


def sample_branch_index(probabilities: Sequence[float],
                        detector: DetectorModel,
                        rng: np.random.Generator) -> int | None:
    """Loss draw, then a categorical draw over branch indices; None on loss.
    Both draws are taken on every call."""
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


def pass_probability(state: np.ndarray, axis: np.ndarray) -> float:
    """Probability that `state` passes a projective check onto `axis`."""
    return abs(complex(np.vdot(axis, state))) ** 2


def polarizer_pass(state: JonesVector, axis: JonesVector,
                   rng: np.random.Generator) -> bool:
    """Bernoulli draw for a polarizer along `axis` checking `state`."""
    return bool(rng.random() < _snap(pass_probability(state.as_array(), axis.as_array())))


def sample_trials(seed: int, n_trials: int, detector: DetectorModel,
                  setup: Callable, check: Callable | None = None) -> Iterator[tuple]:
    """The trial loop, in the draw order above; yields (trial, context,
    branch index or None if lost, passed or None if unchecked).

    `setup(rng)` makes the caller's pre-draws and returns (context, branch
    pmf); `check(context, index)` gives a kept trial's pass probability, or
    None for no check.
    """
    n_trials = _whole("n_trials", n_trials, 1)
    for trial in range(n_trials):
        rng = trial_stream(seed, trial)
        context, probabilities = setup(rng)
        index = sample_branch_index(probabilities, detector, rng)
        passed = None
        if index is not None and check is not None:
            p = check(context, index)
            if p is not None:
                passed = bool(rng.random() < _snap(p))
        yield trial, context, index, passed


def uniform_grid(pmfs: Sequence[Sequence[Sequence[float]]]) -> Callable:
    """A setup drawing a row, then a column, uniformly from a grid of pmfs;
    the context is (row, column)."""
    def setup(rng: np.random.Generator):
        i = int(rng.integers(len(pmfs)))
        j = int(rng.integers(len(pmfs[i])))
        return (i, j), pmfs[i][j]
    return setup


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
        if self.verifier == "parallel" and not self.correction:
            raise SimulationError(
                "verifier 'parallel' checks the corrected state; enable correction")
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


def _pass_probability(stations: StationConfig, message: JonesVector,
                      branches: BranchSet, setting: int | None,
                      index: int) -> float:
    """Pass probability of the check a kept trial meets at its station."""
    if stations.verifier == "parallel":
        axis = message if stations.axis_override is None else stations.axis_override
        return pass_probability(branches.corrected[index].as_array(), axis.as_array())
    if stations.verifier == "merged":
        return pass_probability(branches.decoded[index].as_array(),
                                branches.decoded[setting - 1].as_array())
    return pass_probability(branches.rails[index], branches.rails[setting - 1])


def run_trials(psi: JonesVector | None, n_trials: int, detector: DetectorModel,
               seed: int, stations: StationConfig) -> list[EventRecord]:
    """Simulate `n_trials` heralded rounds.

    psi=None draws a fresh Haar-random message every trial; a fixed psi is
    read off `branch_set` once and reused, as is each of its checks' pass
    probability.
    """
    fixed = None if psi is None else branch_set(psi)
    draws_setting = stations.verifier in ("merged", "direct")

    def setup(rng: np.random.Generator):
        message = psi if fixed is not None else random_jones(rng)
        branches = fixed if fixed is not None else branch_set(message)
        setting = int(rng.integers(1, 5)) if draws_setting else None
        return (message, branches, setting), branches.probabilities

    def check(context, index: int) -> float:
        return _pass_probability(stations, *context, index)

    if fixed is not None:
        # A fixed message meets at most 16 distinct checks; compute each once.
        fixed_pass = functools.cache(
            lambda setting, index: _pass_probability(stations, psi, fixed, setting, index))

        def check(context, index: int) -> float:
            return fixed_pass(context[2], index)

    records: list[EventRecord] = []
    for trial, (message, _, setting), index, passed in sample_trials(
            seed, n_trials, detector, setup, check if stations.verifier else None):
        if index is None:
            records.append(EventRecord(trial, message, None, None, setting, None))
            continue
        outcome = OUTCOMES[index]
        plan = correction_plan(outcome) if stations.correction else None
        records.append(EventRecord(trial, message, outcome.value, plan, setting, passed))
    return records


def outcome_counts(records: Sequence[EventRecord]) -> dict[str, int]:
    """Counts keyed by outcome label, with lost trials under "lost"."""
    counts: dict[str, int] = {out.value: 0 for out in OUTCOMES}
    counts["lost"] = 0
    for record in records:
        counts[record.outcome if record.outcome is not None else "lost"] += 1
    return counts
