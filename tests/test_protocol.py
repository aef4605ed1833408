"""Protocol pipeline: analyzer state, branching, decode, corrections."""

import itertools
import math

import numpy as np
import pytest

from teleoptics import protocol
from teleoptics.bellmode import AliceStrategy, BobSetting, joint_distribution
from teleoptics.errors import GuardViolation, RegistryError, SimulationError
from teleoptics.protocol import (
    BranchTable,
    CORRECTION_TABLE,
    CorrectionPlan,
    OUTCOMES,
    OutcomeId,
    alice_analyzer,
    alice_transform,
    apply_correction,
    bob_decode,
    bob_decoder,
    branch_states_dual_rail,
    branch_set,
    branch_states_polarization,
    branch_table,
    correction_plan,
    preparer_encode,
    source_state,
    teleport_exact,
)
from teleoptics.elements import pbs_merge, pol_rotate_to_h
from teleoptics.states import JointState, JonesVector, ModeRegistry, Polarization

from conftest import analyzer_oracle, assert_state_matches, haar_states

H = Polarization.H
V = Polarization.V


def analyzed(psi):
    return alice_transform(preparer_encode(source_state(), psi))


def test_outcome_ids_enumerate_detector_beams():
    assert [o.value for o in OUTCOMES] == ["D1", "D2", "D3", "D4"]
    assert OutcomeId.D3.index == 2
    assert OutcomeId.D3.detector_mode == "3'"


def test_analyzer_state_matches_hand_derivation(generic_psi):
    assert_state_matches(analyzed(generic_psi), analyzer_oracle(generic_psi))


def test_analyzer_state_matches_for_random_messages():
    for psi in haar_states(25, seed=4):
        assert_state_matches(analyzed(psi), analyzer_oracle(psi))


def test_branch_probabilities_exactly_quarter(generic_psi):
    table = branch_table(analyzed(generic_psi))
    for p in table.probabilities:
        assert abs(p - 0.25) < 1e-12
    assert abs(table.total - 1.0) < 1e-12


def test_conditionals_match_rail_forms():
    for psi in haar_states(10, seed=12):
        table = branch_table(analyzed(psi))
        rails = branch_states_dual_rail(psi)
        for out in OUTCOMES:
            conditional = table.conditional(out.value)
            vec = conditional.direction_vector("a'", "b'")
            assert np.max(np.abs(vec - rails[out.index])) < 1e-12


def test_decode_matches_polarization_forms():
    for psi in haar_states(10, seed=13):
        table = branch_table(analyzed(psi))
        expected = branch_states_polarization(psi)
        for out in OUTCOMES:
            jones = bob_decode(table.conditional(out.value))
            assert abs(jones.alpha - expected[out.index].alpha) < 1e-12
            assert abs(jones.beta - expected[out.index].beta) < 1e-12


def test_correction_table_is_the_unique_fidelity_one_plan(generic_psi):
    """Exhaustive: per outcome, exactly the frozen plan restores the message."""
    table = branch_table(analyzed(generic_psi))
    plans = [CorrectionPlan(c1, c2) for c1, c2 in
             itertools.product((False, True), repeat=2)]
    for out in OUTCOMES:
        decoded = bob_decode(table.conditional(out.value))
        winners = [plan for plan in plans
                   if apply_correction(decoded, plan).fidelity(generic_psi)
                   > 1 - 1e-12]
        assert winners == [CORRECTION_TABLE[out]]
        for plan in plans:
            if plan != CORRECTION_TABLE[out]:
                fidelity = apply_correction(decoded, plan).fidelity(generic_psi)
                assert fidelity < 0.9


def test_correction_table_ties_at_pole_message():
    """A pole message is invariant under the sign cell, so extra plans tie;
    the frozen table still sits among the winners."""
    psi = JonesVector(1.0, 0.0)
    table = branch_table(analyzed(psi))
    plans = [CorrectionPlan(c1, c2) for c1, c2 in
             itertools.product((False, True), repeat=2)]
    for out in OUTCOMES:
        decoded = bob_decode(table.conditional(out.value))
        winners = {plan for plan in plans
                   if apply_correction(decoded, plan).fidelity(psi) > 1 - 1e-12}
        assert CORRECTION_TABLE[out] in winners
        assert len(winners) == 2  # the sign cell is free at this message


def test_frozen_correction_plan_entries():
    assert correction_plan(OutcomeId.D1) == CorrectionPlan(False, False)
    assert correction_plan(OutcomeId.D2) == CorrectionPlan(False, True)
    assert correction_plan(OutcomeId.D3) == CorrectionPlan(True, True)
    assert correction_plan(OutcomeId.D4) == CorrectionPlan(True, False)


def test_teleport_exact_certainty():
    for psi in haar_states(20, seed=5):
        for outcome in teleport_exact(psi).values():
            assert abs(outcome.probability - 0.25) < 1e-12
            assert abs(outcome.fidelity - 1.0) < 1e-12


def test_apply_correction_components():
    jones = JonesVector(0.6, 0.8)
    flipped = apply_correction(jones, CorrectionPlan(True, False))
    assert flipped == JonesVector(-0.6, 0.8)
    swapped = apply_correction(jones, CorrectionPlan(False, True))
    assert swapped == JonesVector(0.8, 0.6)
    both = apply_correction(jones, CorrectionPlan(True, True))
    assert both == JonesVector(0.8, -0.6)  # sign cell first, then exchange


def test_preparer_rejects_non_h_input(generic_psi):
    encoded = preparer_encode(source_state(), generic_psi)
    with pytest.raises(GuardViolation):
        preparer_encode(encoded, generic_psi)


def test_branch_table_guards():
    state = preparer_encode(source_state(), JonesVector.from_bloch(1.0, 0.0))
    # both polarizations share each beam before the analyzer runs
    with pytest.raises(GuardViolation, match="polarization"):
        branch_table(state, photon=1, bindings={"a": "DA", "b": "DB"})
    with pytest.raises(GuardViolation, match="no detector"):
        branch_table(analyzed(JonesVector(1.0, 0.0)), photon=1,
                     bindings={"1'": "D1"})
    with pytest.raises(RegistryError, match="photon must be 1 or 2, got 3"):
        branch_table(state, photon=3)


def test_branch_table_zero_probability_branch_is_none():
    # pole message: beam 1 (V from a) is empty, so mixing leaves specific
    # detector weights; bind an extra empty beam explicitly instead
    state = analyzed(JonesVector(1.0, 0.0)).with_modes(1, ["idle"])
    table = branch_table(
        state, photon=1,
        bindings={"1'": "D1", "2'": "D2", "3'": "D3", "4'": "D4", "idle": "DX"},
    )
    assert table.probability("DX") == 0.0
    assert table.conditional("DX") is None


def test_branch_table_validation():
    with pytest.raises(SimulationError, match="duplicate"):
        BranchTable(("x", "x"), (0.5, 0.5), (None, None))
    with pytest.raises(SimulationError, match="equal length"):
        BranchTable(("x",), (0.5, 0.5), (None, None))
    with pytest.raises(SimulationError, match="negative"):
        BranchTable(("x",), (-0.5,), (None,))


def test_branch_table_on_photon_two():
    # detecting photon 2 instead: conditionals live on photon 1's beams
    psi = JonesVector.from_bloch(1.1, 0.4)
    state = preparer_encode(source_state(), psi)
    table = branch_table(state, photon=2, bindings={"a'": "A", "b'": "B"})
    assert abs(table.probability("A") - 0.5) < 1e-12
    cond = table.conditional("A")
    assert abs(abs(cond.amplitude(("a", H))) - abs(psi.alpha)) < 1e-12


# ------------------------------------------- photon 1 and photon 2 slots alike

def swap_photons(state):
    """`state` with the two photons' key slots and registry sides exchanged."""
    return JointState(
        {(m2, p2, m1, p1): amp for (m1, p1, m2, p2), amp in state.items()},
        ModeRegistry(state.registry.photon2, state.registry.photon1),
    )


def test_elements_and_branch_table_act_alike_on_either_photon(generic_psi):
    state = preparer_encode(source_state(), generic_psi)
    for element in alice_analyzer():
        out = state.apply_one_photon_map(1, element)
        assert swap_photons(state).apply_one_photon_map(2, element) == swap_photons(out)
        state = out
    assert branch_table(swap_photons(state), photon=2) == branch_table(state, photon=1)
    for element in bob_decoder():
        out = state.apply_one_photon_map(2, element)
        assert swap_photons(state).apply_one_photon_map(1, element) == swap_photons(out)
        state = out


GUARDS = {
    "overlap": (lambda psi: preparer_encode(source_state(), psi),
                lambda state, photon: state.apply_one_photon_map(
                    photon, pol_rotate_to_h("a"))),
    "exclusive mode": (lambda psi: source_state(),
                       lambda state, photon: state.apply_one_photon_map(
                           photon, pbs_merge("a", "b", "o"))),
    "trace over polarization": (lambda psi: preparer_encode(source_state(), psi),
                                lambda state, photon: branch_table(
                                    state, photon, {"a": "A", "b": "B"})),
    "undetected mode": (analyzed,
                        lambda state, photon: branch_table(state, photon, {"1'": "D1"})),
}


@pytest.mark.parametrize("guard", sorted(GUARDS))
def test_guards_fire_alike_on_either_photon(guard, generic_psi):
    make_state, act = GUARDS[guard]
    state = make_state(generic_psi)
    with pytest.raises(GuardViolation) as on_photon_1:
        act(state, 1)
    with pytest.raises(GuardViolation) as on_photon_2:
        act(swap_photons(state), 2)
    assert str(on_photon_2.value) == str(on_photon_1.value)


# ------------------------------------------------- compiled maps vs the engine

CROSS_CHECK_MESSAGES = [
    JonesVector(1.0, 0.0),
    JonesVector(0.0, 1.0),
    JonesVector(0.0, -1j),
    JonesVector(1 / math.sqrt(2), 1j / math.sqrt(2)),
    JonesVector.from_bloch(1e-9, 0.3),
    JonesVector.from_bloch(math.pi - 1e-9, 2.0),
    *haar_states(200, seed=21),
]


def reference_walk(psi):
    """The guarded sparse engine walked for this one message through the
    public stages: per click, probability, rails, decoded, corrected."""
    table = branch_table(analyzed(psi))
    walk = []
    for out in OUTCOMES:
        conditional = table.conditional(out.value)
        decoded = bob_decode(conditional)
        walk.append((table.probability(out.value),
                     conditional.direction_vector("a'", "b'"),
                     decoded,
                     apply_correction(decoded, correction_plan(out))))
    return walk


def jones_gap(first, second):
    return max(abs(first.alpha - second.alpha), abs(first.beta - second.beta))


def test_branch_set_teleport_exact_and_joint_distribution_match_the_engine():
    setting = BobSetting(1.1, 0.4)
    plus, minus = setting.basis()
    for psi in CROSS_CHECK_MESSAGES:
        walk = reference_walk(psi)
        branches = branch_set(psi)
        exact = teleport_exact(psi)
        joint = joint_distribution(AliceStrategy((psi,)), setting).probabilities[0]
        for out, (p, rails, decoded, corrected) in zip(OUTCOMES, walk):
            k = out.index
            assert abs(branches.probabilities[k] - p) < 1e-12
            assert np.max(np.abs(branches.rails[k] - rails)) < 1e-12
            assert jones_gap(branches.decoded[k], decoded) < 1e-12
            assert jones_gap(branches.corrected[k], corrected) < 1e-12
            assert abs(exact[out].probability - p) < 1e-12
            assert jones_gap(exact[out].final, corrected) < 1e-12
            assert abs(exact[out].fidelity - corrected.fidelity(psi)) < 1e-12
            assert abs(joint[k, 0] - p * abs(np.vdot(plus, rails)) ** 2) < 1e-12
            assert abs(joint[k, 1] - p * abs(np.vdot(minus, rails)) ** 2) < 1e-12


@pytest.fixture
def fresh_compile():
    protocol._compiled_maps.cache_clear()
    yield
    protocol._compiled_maps.cache_clear()


def test_compile_runs_the_engine_guards(fresh_compile, monkeypatch):
    """Without the rotator on beam 1, detector 1' sees H from beam 4 and V
    from beam 1 only when both message components are non-zero, so the
    guard can only fire on the compile's generic message."""
    analyzer = protocol.alice_analyzer

    def analyzer_without_rotator():
        return tuple(element for element in analyzer()
                     if {mode for mode, _ in element.input_basis} != {"1"})

    monkeypatch.setattr(protocol, "alice_analyzer", analyzer_without_rotator)
    with pytest.raises(GuardViolation):
        teleport_exact(JonesVector(1.0, 0.0))
