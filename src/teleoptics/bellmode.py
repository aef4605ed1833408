"""Correlation mode: the analyzer as a generalized measurement on the far qubit.

Fix an encoding on photon 1 and the four analyzer clicks act on photon 2's
direction qubit as a four-element POVM. Letting the sender choose between
encodings while the receiver measures the direction qubit along chosen axes
turns the bench into a correlation experiment with more knobs than a plain
two-setting one. Everything exact here runs through the two-photon pipeline;
nothing assumes the state factorizes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import SimulationError
from .protocol import OUTCOMES, OutcomeId, branch_set, branch_states_dual_rail
from .sampling import DetectorModel, _trial_columns
from .states import JonesVector


@dataclass(frozen=True)
class AliceStrategy:
    """Finite menu of encodings."""

    encodings: tuple[JonesVector, ...]

    def __post_init__(self) -> None:
        if not self.encodings:
            raise SimulationError("strategy needs at least one encoding")
        object.__setattr__(self, "encodings", tuple(self.encodings))


@dataclass(frozen=True)
class BobSetting:
    """Direction-qubit measurement axis, Bloch angles over span{|a'>, |b'>}."""

    theta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        try:
            theta_ok, phi_ok = 0.0 <= self.theta <= math.pi, math.isfinite(self.phi)
        except TypeError:
            raise SimulationError(
                f"setting angles must be real numbers, got {self.theta!r}, {self.phi!r}"
            ) from None
        if not theta_ok:
            raise SimulationError(f"theta must lie in [0, pi], got {self.theta!r}")
        if not phi_ok:
            raise SimulationError(f"phi must be finite, got {self.phi!r}")
        object.__setattr__(self, "phi", float(self.phi) % (2.0 * math.pi))

    def basis(self) -> tuple[np.ndarray, np.ndarray]:
        """Orthonormal (plus, minus) eigenvectors of the axis observable."""
        c, s = math.cos(self.theta / 2.0), math.sin(self.theta / 2.0)
        phase = complex(math.cos(self.phi), math.sin(self.phi))
        plus = np.array([c, phase * s], dtype=complex)
        minus = np.array([s, -phase * c], dtype=complex)
        return plus, minus

    def bloch_vector(self) -> np.ndarray:
        return np.array(
            [
                math.sin(self.theta) * math.cos(self.phi),
                math.sin(self.theta) * math.sin(self.phi),
                math.cos(self.theta),
            ]
        )


def povm_elements(psi: JonesVector) -> tuple[np.ndarray, ...]:
    """The four click operators on the direction qubit for encoding `psi`.

    E_k = (1/2)|conj(d_k)><conj(d_k)| with d_k the branch rail states, so
    that trace(E_k rho) reproduces click probabilities for any rail state
    rho fed to the receiving side. They sum to the identity.
    """
    elements = []
    for d in branch_states_dual_rail(psi):
        elements.append(0.5 * np.outer(d.conj(), d))
    return tuple(elements)


@dataclass(frozen=True)
class CorrelationTable:
    """Joint click/axis statistics, one row block per encoding.

    probabilities[i, k, b] = P(click k, axis outcome b | encoding i), with
    b=0 the plus outcome; each encoding block sums to 1.
    """

    encodings: tuple[JonesVector, ...]
    setting: BobSetting
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        probabilities = np.array(self.probabilities, dtype=float)
        if probabilities.shape != (len(self.encodings), 4, 2):
            raise SimulationError(
                f"probabilities must have shape (n_encodings, 4, 2), "
                f"got {probabilities.shape}"
            )
        for i in range(probabilities.shape[0]):
            total = float(probabilities[i].sum())
            if not abs(total - 1.0) <= 1e-12:
                raise SimulationError(
                    f"encoding {i} block sums to {total!r}, expected 1"
                )
        probabilities.setflags(write=False)
        object.__setattr__(self, "probabilities", probabilities)

    def alice_marginal(self, encoding_index: int) -> np.ndarray:
        """P(click k | encoding), length 4."""
        return self.probabilities[encoding_index].sum(axis=1)

    def bob_marginal(self, encoding_index: int) -> np.ndarray:
        """P(axis outcome b | encoding), length 2."""
        return self.probabilities[encoding_index].sum(axis=0)


def _joint_cells(encodings: Sequence[JonesVector],
                 settings: Sequence[BobSetting]) -> np.ndarray:
    """P(click k, axis outcome b | encoding i, setting j) as [i, j, k, b]."""
    probs = np.empty((len(encodings), 4))
    rails = np.empty((len(encodings), 4, 2), dtype=complex)
    for i, psi in enumerate(encodings):
        branches = branch_set(psi)
        probs[i] = branches.probabilities
        rails[i] = branches.rails
    axes = np.array([setting.basis() for setting in settings])
    overlaps = np.einsum("sbr,ekr->eskb", axes.conj(), rails)
    return probs[:, None, :, None] * np.abs(overlaps) ** 2


def joint_distribution(strategy: AliceStrategy, setting: BobSetting) -> CorrelationTable:
    """Exact joint P(click, axis outcome) per encoding, from the full state."""
    blocks = _joint_cells(strategy.encodings, (setting,))[:, 0]
    return CorrelationTable(strategy.encodings, setting, blocks)


#: Default click binning for two-valued reduction of the four outcomes.
DEFAULT_BINNING: Mapping[OutcomeId, int] = MappingProxyType(
    {OutcomeId.D1: +1, OutcomeId.D2: +1, OutcomeId.D3: -1, OutcomeId.D4: -1}
)

#: The three balanced sign patterns (up to overall sign). Each collapses the
#: four clicks onto one fixed axis of the receiver's qubit; pairing two
#: different patterns across encodings is what opens the classical bound.
BINNING_CLASSES: tuple[Mapping[OutcomeId, int], ...] = (
    DEFAULT_BINNING,
    MappingProxyType(
        {OutcomeId.D1: +1, OutcomeId.D2: -1, OutcomeId.D3: +1, OutcomeId.D4: -1}
    ),
    MappingProxyType(
        {OutcomeId.D1: +1, OutcomeId.D2: -1, OutcomeId.D3: -1, OutcomeId.D4: +1}
    ),
)


def _binning_signs(binning: Mapping[OutcomeId, int]) -> np.ndarray:
    signs = np.empty(4, dtype=float)
    for out in OUTCOMES:
        if out not in binning:
            raise SimulationError(f"binning misses outcome {out}")
        value = int(binning[out])
        if value not in (-1, 1):
            raise SimulationError(f"binning value for {out} must be +1 or -1")
        signs[out.index] = value
    if abs(float(signs.sum())) == 4.0:
        raise SimulationError("degenerate binning: all outcomes share one sign")
    return signs


def _binning_pair(binning) -> tuple[np.ndarray, np.ndarray]:
    if binning is None:
        signs = _binning_signs(DEFAULT_BINNING)
        return signs, signs
    if isinstance(binning, Mapping):
        signs = _binning_signs(binning)
        return signs, signs
    first, second = binning
    return _binning_signs(first), _binning_signs(second)


def exact_correlator(psi: JonesVector, setting: BobSetting,
                     binning: Mapping[OutcomeId, int] | None = None) -> float:
    """<A B> with clicks binned to +-1 and the axis outcome as +-1."""
    signs = _binning_signs(DEFAULT_BINNING if binning is None else binning)
    table = joint_distribution(AliceStrategy((psi,)), setting)
    block = table.probabilities[0]
    return float(np.sum(signs[:, None] * block * np.array([1.0, -1.0])[None, :]))


@dataclass(frozen=True)
class ChshResult:
    """Exact and sampled CHSH data for one (encodings, settings) choice."""

    exact_s: float
    empirical_s: float
    stderr: float
    exact_correlators: np.ndarray
    empirical_correlators: np.ndarray
    n_trials: int
    n_kept: int

    @property
    def coincidence_rate(self) -> float:
        return self.n_kept / self.n_trials if self.n_trials else 0.0


def _cell_pmf(psi: JonesVector, setting: BobSetting) -> np.ndarray:
    """Flattened 8-cell pmf over (click k, axis outcome b)."""
    table = joint_distribution(AliceStrategy((psi,)), setting)
    return table.probabilities[0].reshape(8)


def chsh_scan(encodings: Sequence[JonesVector], settings: Sequence[BobSetting],
              binning=None, eta: float = 1.0, n_trials: int = 20000,
              seed: int = 0) -> ChshResult:
    """CHSH S = E(0,0) + E(0,1) + E(1,0) - E(1,1), exact and sampled.

    `binning` is one click->sign map shared by both encodings, or a pair of
    maps applied per encoding. Trials draw the encoding and setting
    uniformly, then a cell of that pair's (click, axis outcome) pmf, through
    the trial kernel and draw order of `teleoptics.sampling`; lost trials are
    discarded from the post-selected statistics and counted in the
    coincidence rate.
    """
    if len(encodings) != 2 or len(settings) != 2:
        raise SimulationError("chsh_scan takes exactly two encodings and two settings")
    detector = DetectorModel(eta)
    signs = _binning_pair(binning)

    pmf = np.empty((2, 2, 8))
    for i in range(2):
        for j in range(2):
            pmf[i, j] = _cell_pmf(encodings[i], settings[j])
    cell_signs = np.empty((2, 8))
    for i in range(2):
        cell_signs[i] = (signs[i][:, None] * np.array([1.0, -1.0])[None, :]).reshape(8)
    exact = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            exact[i, j] = float(pmf[i, j] @ cell_signs[i])
    exact_s = float(exact[0, 0] + exact[0, 1] + exact[1, 0] - exact[1, 1])

    counts = np.zeros(2 * 2 * 8, dtype=np.int64)
    for _, (i, j), cell, _ in _trial_columns(seed, n_trials, detector, pmf, lead=(2, 2)):
        kept = cell >= 0
        counts += np.bincount(((i * 2 + j) * 8 + cell)[kept], minlength=counts.size)
    counts = counts.reshape(2, 2, 8)
    n_kept = int(counts.sum())

    empirical = np.full((2, 2), np.nan)
    variance = 0.0
    degenerate = False
    for i in range(2):
        for j in range(2):
            total = int(counts[i, j].sum())
            if total == 0:
                degenerate = True
                continue
            e = float(counts[i, j] @ cell_signs[i]) / total
            empirical[i, j] = e
            variance += max(1.0 - e * e, 0.0) / total
    if degenerate:
        empirical_s = float("nan")
        stderr = float("nan")
    else:
        empirical_s = float(
            empirical[0, 0] + empirical[0, 1] + empirical[1, 0] - empirical[1, 1]
        )
        stderr = math.sqrt(variance)
    return ChshResult(exact_s, empirical_s, stderr, exact, empirical, n_trials, n_kept)


@dataclass(frozen=True)
class ScanConfig:
    """Fixed CHSH experiment: encodings, settings, binning, trial budget."""

    encodings: tuple[JonesVector, JonesVector]
    settings: tuple[BobSetting, BobSetting]
    binning: tuple[Mapping[OutcomeId, int], Mapping[OutcomeId, int]]
    trials: int
    seed: int


def default_scan_config(trials: int = 20000, seed: int = 11) -> ScanConfig:
    """A combination whose exact post-selected S is 2*sqrt(2).

    One encoding sits on the equator binned along the first balanced
    pattern, the other at the pole binned along the third; the receiver's
    axes bisect the two resulting qubit directions.
    """
    return ScanConfig(
        encodings=(
            JonesVector.from_bloch(math.pi / 2.0, 0.0),
            JonesVector.from_bloch(math.pi, 0.0),
        ),
        settings=(BobSetting(math.pi / 4.0, 0.0), BobSetting(3.0 * math.pi / 4.0, 0.0)),
        binning=(BINNING_CLASSES[0], BINNING_CLASSES[2]),
        trials=trials,
        seed=seed,
    )


@dataclass(frozen=True)
class EfficiencyRow:
    """One sweep point: efficiency, post-selected S, S error, kept fraction."""

    eta: float
    post_selected_s: float
    stderr: float
    coincidence_rate: float


def efficiency_report(config: ScanConfig,
                      eta_grid: Sequence[float]) -> tuple[EfficiencyRow, ...]:
    """Run the configured scan across detector efficiencies.

    All rows reuse the scan seed, so trials kept at a lower efficiency are
    exactly those kept at any higher one; the coincidence rate is then
    monotone in eta with no sampling noise in the ordering.
    """
    if len(eta_grid) == 0:
        raise SimulationError("eta grid must not be empty")
    if not all(isinstance(eta, numbers.Real) for eta in eta_grid):
        raise SimulationError(f"eta grid must hold numbers, got {eta_grid!r}")
    etas = [float(eta) for eta in eta_grid]
    rows = []
    for eta in etas:
        result = chsh_scan(
            config.encodings,
            config.settings,
            binning=config.binning,
            eta=eta,
            n_trials=config.trials,
            seed=config.seed,
        )
        rows.append(
            EfficiencyRow(
                eta, result.empirical_s, result.stderr, result.coincidence_rate
            )
        )
    return tuple(rows)


@dataclass(frozen=True)
class GridSearchResult:
    """Best CHSH combination found over the exact-value grid."""

    s: float
    encoding_a: JonesVector
    encoding_b: JonesVector
    binning_a: Mapping[OutcomeId, int]
    binning_b: Mapping[OutcomeId, int]
    setting_c: BobSetting
    setting_d: BobSetting


def _default_encoding_grid() -> tuple[JonesVector, ...]:
    thetas = [k * math.pi / 4.0 for k in range(5)]
    phis = [0.0, math.pi / 2.0]
    return tuple(JonesVector.from_bloch(t, p) for t in thetas for p in phis)


def _default_setting_grid() -> tuple[BobSetting, ...]:
    thetas = [k * math.pi / 4.0 for k in range(5)]
    phis = [0.0, math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0]
    return tuple(BobSetting(t, p) for t in thetas for p in phis)


def grid_search_chsh(encoding_grid: Sequence[JonesVector] | None = None,
                     setting_grid: Sequence[BobSetting] | None = None,
                     binnings: Sequence[Mapping[OutcomeId, int]] = BINNING_CLASSES
                     ) -> GridSearchResult:
    """Exhaustive exact-S search over encodings x binnings x settings.

    Correlators are exact, so the result certifies the returned S value.
    The default grids contain a combination with S = 2*sqrt(2).
    """
    encodings = tuple(encoding_grid) if encoding_grid is not None else _default_encoding_grid()
    settings = tuple(setting_grid) if setting_grid is not None else _default_setting_grid()
    sign_rows = [_binning_signs(b) for b in binnings]

    pmf = _joint_cells(encodings, settings).reshape(len(encodings), len(settings), 8)

    # correlator[i, m, j] for encoding i binned by pattern m at setting j
    cell_signs = np.stack(
        [(s[:, None] * np.array([1.0, -1.0])[None, :]).reshape(8) for s in sign_rows]
    )
    correlator = np.einsum("ijc,mc->imj", pmf, cell_signs)
    flat = correlator.reshape(len(encodings) * len(sign_rows), len(settings))

    s_table = (
        flat[:, None, :, None] + flat[:, None, None, :]
        + flat[None, :, :, None] - flat[None, :, None, :]
    )
    best = np.unravel_index(int(np.argmax(s_table)), s_table.shape)
    a, b, c, d = (int(x) for x in best)
    return GridSearchResult(
        s=float(s_table[best]),
        encoding_a=encodings[a // len(sign_rows)],
        encoding_b=encodings[b // len(sign_rows)],
        binning_a=binnings[a % len(sign_rows)],
        binning_b=binnings[b % len(sign_rows)],
        setting_c=settings[c],
        setting_d=settings[d],
    )
