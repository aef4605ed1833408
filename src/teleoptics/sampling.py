"""Trial-level Monte Carlo over analyzer outcomes, loss, and polarizer checks.

Each trial owns a child stream, a `PCG64` seeded by
`SeedSequence(seed, spawn_key=(trial,))`, so results depend on neither
execution order nor process. `trial_stream` builds that stream as a numpy
`Generator` and is the scalar reference. The sampled paths (`run_trials`,
`bellmode.chsh_scan` and `dsl.compile_and_run`) draw through one columnar
kernel, `_trial_columns`, instead: it computes the PCG64 state of every
trial in a chunk with numpy array arithmetic and reads whole columns of
draws off those states. The columns equal what each trial's `Generator`
would draw, bit for bit; the first use in a process checks that against
numpy and raises `SimulationError` if numpy's streams ever change.

Within a trial the draw order is fixed. Counting a stream's 64-bit words
from 0, per caller:

* `chsh_scan`: word 0 gives the encoding, `integers(2)` from its low 32
  bits, and the setting, `integers(2)` from its high 32 bits (numpy
  buffers the unused half of a word for the next 32-bit draw). Word 1 is
  the loss draw and word 2 the cell draw.
* `run_trials`, fixed message: with the merged or direct verifier, the
  low half of word 0 gives the setting, `integers(1, 5)`; its high half
  is buffered and never read. Then one word each for loss, cell and, on a
  kept trial whose station checks it, the polarizer. Without a drawn
  setting, loss is word 0.
* `run_trials`, Haar message: `normal(size=4)`, which takes a varying
  number of words from numpy's ziggurat, then the setting if drawn, then
  loss, cell and polarizer as above. These trials draw from one reused
  `PCG64` loaded with each trial's vectorized state.
* `compile_and_run`: loss, cell, then the polarizer on a kept trial whose
  branch has a check.

Loss and cell are drawn on every trial, so kept-trial sets nest as
efficiency falls under one seed.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from itertools import count
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


def _check_total(total: float) -> None:
    if not abs(total - 1.0) <= 1e-9:
        raise SimulationError(f"branch probabilities sum to {total!r}, expected 1")


def sample_branch_index(probabilities: Sequence[float],
                        detector: DetectorModel,
                        rng: np.random.Generator) -> int | None:
    """Loss draw, then a categorical draw over branch indices; None on loss.
    Both draws are taken on every call."""
    lost = float(rng.random()) >= detector.efficiency
    u = float(rng.random())
    if lost:
        return None
    _check_total(float(sum(probabilities)))
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


def _passed(u: float, p: float | None) -> bool | None:
    """A kept trial's polarizer outcome from its draw `u`; None if unchecked."""
    return None if p is None else bool(u < _snap(p))


# SeedSequence's hash and mix constants (NumPy NEP 19), on 32-bit words.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4
_M32 = 0xFFFF_FFFF
# PCG64's 128-bit LCG multiplier as 64-bit halves, and the low half as
# 32-bit limbs for the carry into the high half.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MUL_HI, _MUL_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & 0xFFFF_FFFF_FFFF_FFFF)
_MUL_LO0, _MUL_LO1 = np.uint64(_PCG_MULT & _M32), np.uint64(_PCG_MULT >> 32 & _M32)
_U32, _U58, _U64 = np.uint64(32), np.uint64(58), np.uint64(64)
_LOW32 = np.uint64(_M32)

#: Trials per chunk of columns, so a run's arrays stay bounded at any trial
#: count.
_CHUNK = 1 << 13
#: Trial indices are held as uint64.
_MAX_TRIALS = 1 << 64


def _hashmix(value, const: int):
    """SeedSequence's hashmix of a word, or of a uint32 array; returns the
    mixed value and the next hash constant."""
    value = value ^ const
    const = const * _MULT_A & _M32
    value = value * const & _M32
    return value ^ value >> 16, const


def _mix(x, y):
    """SeedSequence's mix of two words, or of two uint32 arrays."""
    result = (_MIX_L * x - _MIX_R * y) & _M32
    return result ^ result >> 16


def _mix_in(pool: list, word, const: int) -> tuple[list, int]:
    """Fold one entropy word past the pool size into every pool word."""
    mixed = []
    for value in pool:
        hashed, const = _hashmix(word, const)
        mixed.append(_mix(value, hashed))
    return mixed, const


def _seed_pool(seed: int) -> tuple[list[int], int]:
    """SeedSequence's pool after the run entropy `seed`, zero-padded to the
    pool size as numpy pads it under a spawn key, and the hash constant the
    spawn words continue from."""
    words = []
    while seed:
        words.append(seed & _M32)
        seed >>= 32
    words += [0] * (_POOL_WORDS - len(words))
    const = _INIT_A
    pool = []
    for word in words[:_POOL_WORDS]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                hashed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], hashed)
    for word in words[_POOL_WORDS:]:
        pool, const = _mix_in(pool, word, const)
    return pool, const


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, state * multiplier + increment mod 2**128, on uint64
    halves; the high half of lo * _MUL_LO is built from 32-bit limbs."""
    a0, a1 = lo & _LOW32, lo >> _U32
    p00, p01, p10 = a0 * _MUL_LO0, a0 * _MUL_LO1, a1 * _MUL_LO0
    mid = (p00 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    carry = a1 * _MUL_LO1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
    return _add128(carry + hi * _MUL_LO + lo * _MUL_HI, lo * _MUL_LO, inc_hi, inc_lo)


def _stream_states(seed: int, start: int, stop: int) -> tuple[np.ndarray, ...]:
    """PCG64 (state high, state low, increment high, increment low) of the
    streams of trials [start, stop), as uint64 arrays, before any draw."""
    trials = np.uint64(start) + np.arange(stop - start, dtype=np.uint64)
    pool, const = _seed_pool(seed)
    pool = [np.full(1, value, dtype=np.uint32) for value in pool]
    pool, const = _mix_in(pool, (trials & _LOW32).astype(np.uint32), const)
    high = (trials >> _U32).astype(np.uint32)
    wide = high != 0
    if wide.any():  # a spawn key of two 32-bit words
        pool = [np.where(wide, two, one)
                for one, two in zip(pool, _mix_in(pool, high, const)[0])]
    const = _INIT_B
    halves = []
    for i in range(2 * _POOL_WORDS):  # generate_state(4, np.uint64)
        value = pool[i % _POOL_WORDS] ^ const
        const = const * _MULT_B & _M32
        value = value * const & _M32
        halves.append((value ^ value >> 16).astype(np.uint64))
    w0, w1, w2, w3 = (halves[2 * k] | halves[2 * k + 1] << _U32 for k in range(4))
    # PCG64 seeding: inc = 2 * (w2, w3) + 1; step from state 0, add
    # (w0, w1), step again.
    inc_hi, inc_lo = w2 << np.uint64(1) | w3 >> np.uint64(63), w3 << np.uint64(1) | np.uint64(1)
    hi, lo = _add128(inc_hi, inc_lo, w0, w1)
    hi, lo = _step(hi, lo, inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


def _stream_words(seed: int, start: int, stop: int, n_words: int) -> np.ndarray:
    """The first `n_words` 64-bit outputs of the streams of trials
    [start, stop), shape (n_words, stop - start)."""
    hi, lo, inc_hi, inc_lo = _stream_states(seed, start, stop)
    words = np.empty((n_words, stop - start), dtype=np.uint64)
    for k in range(n_words):
        hi, lo = _step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> _U58  # XSL-RR output
        words[k] = x >> rot | x << ((_U64 - rot) & np.uint64(63))
    return words


def _doubles(words: np.ndarray) -> np.ndarray:
    """`Generator.random()` of each word."""
    return (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def _bounded(words: np.ndarray, half: int, span: int) -> np.ndarray:
    """`Generator.integers(span)` from the low (half 0) or high (half 1)
    32 bits of each word; Lemire's method never rejects a power of two."""
    bits = words & _LOW32 if half == 0 else words >> _U32
    return (bits * np.uint64(span) >> _U32).astype(np.intp)


def _loaded_draws(seed: int, start: int, stop: int, setup: Callable):
    """Per-trial pre-draws for trials [start, stop): each trial's stream
    state is loaded into one reused PCG64, `setup(rng)` makes its draws and
    gives (context, branch pmf), then loss, cell and polarizer follow.
    Returns the contexts, the pmfs and the (3, n) draws."""
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    contexts, pmfs, draws = [], [], []
    for hi, lo, inc_hi, inc_lo in zip(*(a.tolist() for a in _stream_states(seed, start, stop))):
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo},
            "has_uint32": 0,
            "uinteger": 0,
        }
        context, pmf = setup(rng)
        contexts.append(context)
        pmfs.append(pmf)
        draws.append(rng.random(3))
    return contexts, np.array(pmfs, dtype=float), np.array(draws).T


@functools.cache
def _check_streams() -> None:
    """Compare the kernel's draws with numpy's own, per trial layout, for a
    few trials at a one-word seed and at a seed past 2**64; raise on any
    difference, so that a numpy release with other streams fails loudly
    instead of changing seeded results."""
    for seed in (7, 2**64 + 5):
        words = _stream_words(seed, 0, 3, 3)
        u = _doubles(words)
        normals, _, loaded = _loaded_draws(seed, 0, 3, lambda rng: (rng.normal(size=4), ()))
        for t in range(3):
            grid, setting, haar = (trial_stream(seed, t) for _ in range(3))
            expected = [grid.integers(2), grid.integers(2), grid.random(), grid.random(),
                        setting.integers(1, 5), setting.random(), *haar.normal(size=4),
                        *haar.random(3)]
            drawn = [_bounded(words[0], 0, 2)[t], _bounded(words[0], 1, 2)[t], u[1, t],
                     u[2, t], 1 + _bounded(words[0], 0, 4)[t], u[1, t], *normals[t],
                     *loaded[:, t]]
            if expected != drawn:
                raise SimulationError(
                    f"numpy {np.__version__} draws trial streams that differ from the "
                    f"vectorized kernel (seed {seed}, trial {t}); seeded results would "
                    "not reproduce")


def _trial_columns(seed: int, n_trials: int, detector: DetectorModel,
                   pmfs=None, lead: tuple | Callable = ()) -> Iterator[tuple]:
    """The trial kernel: every trial's draws, as columns over chunks of at
    most `_CHUNK` trials, in the draw order of the module docstring.

    `lead` is the caller's pre-draws, either a tuple of `integers(span)`
    spans (powers of two), drawn from successive 32-bit halves of the
    leading words, or a callable `setup(rng)` called per trial with that
    trial's stream and returning (context, branch pmf). With a tuple, `pmfs`
    holds the branch pmfs on its last axis, and its leading axes are
    indexed by the first lead columns.

    Yields (start, lead, index, check) per chunk of trials
    [start, start + len(index)): the lead columns (with a callable, a
    1-tuple of the contexts), the branch index (-1 on loss) and the
    polarizer draw, which counts only on a kept trial that is checked.
    """
    n_trials = _whole("n_trials", n_trials, 1)
    seed = _whole("seed", seed, 0)
    if n_trials > _MAX_TRIALS:
        raise SimulationError(f"n_trials must be at most 2**64, got {n_trials!r}")
    _check_streams()
    if not callable(lead):
        table = np.asarray(pmfs, dtype=float)
        axes = table.shape[:-1]
        cumulative = np.cumsum(table.reshape(-1, table.shape[-1]), axis=1)
        skip = (len(lead) + 1) // 2
    for start in range(0, n_trials, _CHUNK):
        stop = min(start + _CHUNK, n_trials)
        if callable(lead):
            contexts, rows, u = _loaded_draws(seed, start, stop, lead)
            cumulative = np.cumsum(rows, axis=1)
            columns, group = (contexts,), np.arange(stop - start)
        else:
            words = _stream_words(seed, start, stop, skip + 3)
            columns = tuple(_bounded(words[k // 2], k % 2, span) for k, span in enumerate(lead))
            group = (np.ravel_multi_index(columns[:len(axes)], axes) if axes
                     else np.zeros(stop - start, dtype=np.intp))
            u = _doubles(words[skip:])
        kept = u[0] < detector.efficiency
        # A pmf is checked only where a kept trial reaches it, as
        # sample_branch_index checks it; its total is the last cumulative
        # entry, the same sequential sum.
        totals = cumulative[group, -1]
        bad = kept & ~(np.abs(totals - 1.0) <= 1e-9)
        if bad.any():
            _check_total(float(totals[bad.argmax()]))
        # The first cumulative entry above u, which is the scalar walk's
        # `u < acc` (searchsorted(side="right") on a sorted row), with its
        # last-index fallback.
        above = cumulative[group] > u[1][:, None]
        index = np.where(above.any(axis=1), above.argmax(axis=1), cumulative.shape[1] - 1)
        yield start, columns, np.where(kept, index, -1), u[2]


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
    draws_setting = stations.verifier in ("merged", "direct")

    def check(context, index: int) -> float:
        return _pass_probability(stations, *context, index)

    if psi is None:
        def setup(rng: np.random.Generator):
            message = random_jones(rng)
            branches = branch_set(message)
            setting = int(rng.integers(1, 5)) if draws_setting else None
            return (message, branches, setting), branches.probabilities

        columns = _trial_columns(seed, n_trials, detector, lead=setup)
    else:
        fixed = branch_set(psi)
        columns = _trial_columns(seed, n_trials, detector, fixed.probabilities,
                                 lead=(4,) if draws_setting else ())
        # A fixed message meets at most 16 distinct checks; compute each once.
        fixed_pass = functools.cache(
            lambda setting, index: _pass_probability(stations, psi, fixed, setting, index))

        def check(context, index: int) -> float:
            return fixed_pass(context[2], index)

    outcomes = [outcome.value for outcome in OUTCOMES]
    plans = [correction_plan(outcome) if stations.correction else None for outcome in OUTCOMES]
    records: list[EventRecord] = []
    for start, lead, index, draws in columns:
        if psi is None:
            (contexts,) = lead
        else:
            settings = (lead[0] + 1).tolist() if draws_setting else [None] * len(index)
            contexts = [(psi, fixed, setting) for setting in settings]
        for trial, context, i, u in zip(count(start), contexts, index.tolist(), draws.tolist()):
            message, _, setting = context
            if i < 0:
                records.append(EventRecord(trial, message, None, None, setting, None))
                continue
            passed = _passed(u, check(context, i)) if stations.verifier else None
            records.append(EventRecord(trial, message, outcomes[i], plans[i], setting, passed))
    return records


def outcome_counts(records: Sequence[EventRecord]) -> dict[str, int]:
    """Counts keyed by outcome label, with lost trials under "lost"."""
    counts: dict[str, int] = {out.value: 0 for out in OUTCOMES}
    counts["lost"] = 0
    for record in records:
        counts[record.outcome if record.outcome is not None else "lost"] += 1
    return counts
