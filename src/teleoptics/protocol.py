"""The teleportation bench: source, preparer, analyzer, decoder, corrections.

Photon 1 carries the message polarization through two beams; photon 2 is
the distant half of a direction-entangled pair. The analyzer maps photon 1
onto four detector beams; each click leaves photon 2 in one of four states
related to the message by fixed single-qubit corrections.

Every stage is linear in the message (alpha, beta), so the guarded sparse
engine runs once per process, on |H>, |V> and one message with both
components non-zero. `branch_set` then reads each message's branches off
the per-click maps compiled from those runs, at the cost of four small
matrix products per message, one per click. The closed forms
`branch_states_*` are kept as independent cross-checks of those maps.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .elements import (
    OnePhotonMap,
    SIGN_FLIP_H,
    SWAP_H_V,
    jones_rotation,
    pbs,
    pbs_merge,
    pockels_c1,
    pockels_c2,
    pol_rotate_h_to_v,
    pol_rotate_to_h,
    symmetric_bs,
)
from .errors import GuardViolation, SimulationError
from .states import (
    CONSERVATION_EPS,
    H,
    V,
    JointState,
    JonesVector,
    PhotonState,
    make_pair_state,
)

#: Canonical mode names for the bench.
SOURCE_MODES_1 = ("a", "b")
SOURCE_MODES_2 = ("a'", "b'")
DETECTOR_MODES = ("1'", "2'", "3'", "4'")
MERGED_MODE = "o"


class OutcomeId(enum.Enum):
    """The four analyzer detectors, one per output beam."""

    D1 = "D1"
    D2 = "D2"
    D3 = "D3"
    D4 = "D4"

    @property
    def index(self) -> int:
        """Zero-based position: D1 -> 0, ..., D4 -> 3."""
        return int(self.value[1]) - 1

    @property
    def detector_mode(self) -> str:
        return DETECTOR_MODES[self.index]

    def __str__(self) -> str:
        return self.value


OUTCOMES: tuple[OutcomeId, ...] = tuple(OutcomeId)


@dataclass(frozen=True)
class CorrectionPlan:
    """Which correction cells fire for a given detector click."""

    fire_c1: bool
    fire_c2: bool


#: Click -> corrections, stated for the decoded (merged-beam) state. The
#: sign cell fires before the exchange cell when both are on. Tests pin
#: every entry by checking the corrected state reproduces the message.
CORRECTION_TABLE: Mapping[OutcomeId, CorrectionPlan] = MappingProxyType(
    {
        OutcomeId.D1: CorrectionPlan(fire_c1=False, fire_c2=False),
        OutcomeId.D2: CorrectionPlan(fire_c1=False, fire_c2=True),
        OutcomeId.D3: CorrectionPlan(fire_c1=True, fire_c2=True),
        OutcomeId.D4: CorrectionPlan(fire_c1=True, fire_c2=False),
    }
)


def correction_plan(outcome: OutcomeId) -> CorrectionPlan:
    return CORRECTION_TABLE[outcome]


@dataclass(frozen=True)
class BranchTable:
    """Detection outcomes with probabilities and conditional partner states.

    A branch whose probability vanishes keeps its label but carries None;
    probabilities always sum to the total weight of the analyzed state.
    """

    labels: tuple[str, ...]
    probabilities: tuple[float, ...]
    conditionals: tuple[PhotonState | None, ...]

    def __post_init__(self) -> None:
        if len(set(self.labels)) != len(self.labels):
            raise SimulationError(f"duplicate branch labels in {self.labels!r}")
        if not (len(self.labels) == len(self.probabilities) == len(self.conditionals)):
            raise SimulationError("branch table columns must have equal length")
        for p in self.probabilities:
            if p < -CONSERVATION_EPS:
                raise SimulationError(f"negative branch probability {p!r}")

    def probability(self, label: str) -> float:
        return self.probabilities[self.labels.index(label)]

    def conditional(self, label: str) -> PhotonState | None:
        return self.conditionals[self.labels.index(label)]

    @property
    def total(self) -> float:
        return float(sum(self.probabilities))


def source_state() -> JointState:
    """Fresh direction-entangled pair on the canonical modes, both H."""
    return make_pair_state(
        SOURCE_MODES_1[0], SOURCE_MODES_1[1], SOURCE_MODES_2[0], SOURCE_MODES_2[1]
    )


def preparer_encode(state: JointState, psi: JonesVector) -> JointState:
    """Rotate photon 1 from H into psi on every beam it occupies."""
    for ket, _ in state.items():
        if ket.pol1 is not H:
            raise GuardViolation(
                "preparer expects photon 1 all-H; found amplitude on "
                f"{ket.mode1!r}/{ket.pol1}"
            )
    modes = tuple(sorted(state.registry.photon1))
    return state.apply_one_photon_map(1, jones_rotation(psi, modes))


def alice_analyzer() -> tuple[OnePhotonMap, ...]:
    """Analyzer elements for photon 1, in physical order: split each source
    beam by polarization, erase the which-polarization mark, then mix the
    four beams pairwise on two symmetric splitters."""
    return (
        pbs(SOURCE_MODES_1[0], "1", "2"),
        pbs(SOURCE_MODES_1[1], "3", "4"),
        pol_rotate_to_h("1"),
        pol_rotate_to_h("3"),
        symmetric_bs("1", "4", DETECTOR_MODES[0], DETECTOR_MODES[3]),
        symmetric_bs("2", "3", DETECTOR_MODES[1], DETECTOR_MODES[2]),
    )


def alice_transform(state: JointState) -> JointState:
    for element in alice_analyzer():
        state = state.apply_one_photon_map(1, element)
    return state


def branch_table(state: JointState, photon: int = 1,
                 bindings: Mapping[str, str] | None = None) -> BranchTable:
    """Collapse `photon` mode-by-mode into labeled branches.

    `bindings` maps each detected mode to its label; default labels D1..D4
    on the canonical detector beams. Each bound mode must hold a single
    polarization, mirroring a detector that cannot resolve polarization yet
    must not erase one.
    """
    if bindings is None:
        bindings = {mode: out.value for mode, out in zip(DETECTOR_MODES, OUTCOMES)}
    state.registry.modes(photon)  # rejects a photon other than 1 or 2
    lo, partner_lo = (0, 2) if photon == 1 else (2, 0)
    partner_modes = state.registry.modes(3 - photon)
    for ket, _ in state.items():
        if ket[lo] not in bindings:
            raise GuardViolation(f"mode {ket[lo]!r} holds amplitude but has no detector")

    labels = []
    probabilities = []
    conditionals: list[PhotonState | None] = []
    for mode, label in bindings.items():
        pols = {ket[lo + 1] for ket, _ in state.items() if ket[lo] == mode}
        if len(pols) > 1:
            raise GuardViolation(
                f"detector on {mode!r} would trace over polarization; "
                "split or rotate it away first"
            )
        amps = {ket[partner_lo:partner_lo + 2]: amp
                for ket, amp in state.items() if ket[lo] == mode}
        weight = sum(v.real * v.real + v.imag * v.imag for v in amps.values())
        labels.append(label)
        probabilities.append(float(weight))
        if weight <= CONSERVATION_EPS:
            conditionals.append(None)
        else:
            scale = 1.0 / math.sqrt(weight)
            conditionals.append(
                PhotonState({k: v * scale for k, v in amps.items()}, partner_modes)
            )
    return BranchTable(tuple(labels), tuple(probabilities), tuple(conditionals))


def bob_decoder() -> tuple[OnePhotonMap, ...]:
    """Decoder for photon 2: mark one beam V, then merge the two beams into
    a single output whose polarization carries the direction amplitudes."""
    return (
        pol_rotate_h_to_v(SOURCE_MODES_2[0]),
        pbs_merge(SOURCE_MODES_2[0], SOURCE_MODES_2[1], MERGED_MODE),
    )


def bob_decode(conditional: PhotonState) -> JonesVector:
    """Run the decoder and read the polarization off the merged beam."""
    for element in bob_decoder():
        conditional = conditional.apply_map(element)
    return conditional.to_jones(MERGED_MODE)


def apply_correction(jones: JonesVector, plan: CorrectionPlan) -> JonesVector:
    vec = jones.as_array()
    if plan.fire_c1:
        vec = SIGN_FLIP_H @ vec
    if plan.fire_c2:
        vec = SWAP_H_V @ vec
    return JonesVector(complex(vec[0]), complex(vec[1]))


def branch_states_dual_rail(psi: JonesVector) -> tuple:
    """Photon-2 direction amplitudes (on a', b') behind each detector click,
    for the message alpha|H> + beta|V>. Closed form of the full pipeline."""
    a, b = psi.alpha, psi.beta
    return (
        np.array([b, a], dtype=complex),
        np.array([a, b], dtype=complex),
        np.array([a, -b], dtype=complex),
        np.array([b, -a], dtype=complex),
    )


def branch_states_polarization(psi: JonesVector) -> tuple[JonesVector, ...]:
    """Decoded (merged-beam) polarization behind each click, before any
    correction fires. D1 already matches the message up to an exchange."""
    a, b = psi.alpha, psi.beta
    return (
        JonesVector(a, b),
        JonesVector(b, a),
        JonesVector(-b, a),
        JonesVector(-a, b),
    )


@dataclass(frozen=True, eq=False)
class BranchSet:
    """Everything the bench yields for one message, one entry per click in
    OUTCOMES order: the click probabilities, photon 2's normalized rail
    amplitudes on (a', b') as a read-only (4, 2) array, the decoded
    merged-beam polarization, and that polarization once corrected."""

    probabilities: tuple[float, ...]
    rails: np.ndarray
    decoded: tuple[JonesVector, ...]
    corrected: tuple[JonesVector, ...]


#: A message with both components non-zero. Every guard in the engine
#: fails only on which kets carry amplitude, and any message's support is
#: a subset of this one's, so guards passing here pass for every message.
_GENERIC_MESSAGE = JonesVector(0.6, 0.8j)


def _engine_columns(psi: JonesVector) -> np.ndarray:
    """The guarded sparse engine on one message, as a (4, 6) array: per
    click, the unnormalized rails, decoded and corrected components."""
    table = branch_table(alice_transform(preparer_encode(source_state(), psi)))
    columns = np.empty((4, 6), dtype=complex)
    for outcome in OUTCOMES:
        conditional = table.conditional(outcome.value)
        if conditional is None:
            raise SimulationError(f"branch {outcome} unexpectedly empty")
        decoded = bob_decode(conditional)
        corrected = apply_correction(decoded, correction_plan(outcome))
        rails = conditional.direction_vector(*SOURCE_MODES_2)
        columns[outcome.index] = math.sqrt(table.probability(outcome.value)) * np.array(
            (*rails, decoded.alpha, decoded.beta, corrected.alpha, corrected.beta))
    return columns


@functools.cache
def _compiled_maps() -> tuple[tuple[tuple[complex, complex], ...], ...]:
    """Per click, the six (alpha, beta) coefficient pairs of
    `_engine_columns`, read off the engine's runs on |H> and |V>. The run
    on a generic message passes every support-dependent guard on behalf of
    all messages, and checks that the maps reproduce the engine."""
    maps = np.stack((_engine_columns(JonesVector(1.0, 0.0)),
                     _engine_columns(JonesVector(0.0, 1.0))), axis=-1)
    if not np.allclose(maps @ _GENERIC_MESSAGE.as_array(),
                       _engine_columns(_GENERIC_MESSAGE),
                       rtol=0.0, atol=CONSERVATION_EPS):
        raise SimulationError("the bench is not linear in the message")
    return tuple(tuple(map(tuple, click)) for click in maps.tolist())


def branch_set(psi: JonesVector) -> BranchSet:
    """Every click's probability, rails, decoded and corrected state for
    `psi`, from the maps the guarded engine compiled once per process."""
    a, b = psi.alpha, psi.beta
    probabilities, rails, decoded, corrected = [], [], [], []
    for click in _compiled_maps():
        r0, r1, d0, d1, c0, c1 = [ma * a + mb * b for ma, mb in click]
        weight = r0.real ** 2 + r0.imag ** 2 + r1.real ** 2 + r1.imag ** 2
        scale = 1.0 / math.sqrt(weight)
        probabilities.append(weight)
        rails.append((r0 * scale, r1 * scale))
        decoded.append(JonesVector(d0 * scale, d1 * scale))
        corrected.append(JonesVector(c0 * scale, c1 * scale))
    rail_array = np.array(rails, dtype=complex)
    rail_array.setflags(write=False)
    return BranchSet(tuple(probabilities), rail_array, tuple(decoded), tuple(corrected))


@dataclass(frozen=True)
class TeleportOutcome:
    """One analyzer branch: its probability, the corrected output state,
    and that state's fidelity with the message."""

    probability: float
    final: JonesVector
    fidelity: float


def teleport_exact(psi: JonesVector) -> dict[OutcomeId, TeleportOutcome]:
    """Exact run: encode, analyze, branch, decode, correct, via `branch_set`.

    Every branch has probability 1/4 and corrected fidelity 1; tests assert
    both to machine precision rather than trusting this docstring.
    """
    branches = branch_set(psi)
    return {
        outcome: TeleportOutcome(p, final, final.fidelity(psi))
        for outcome, p, final in zip(OUTCOMES, branches.probabilities, branches.corrected)
    }
