"""State layer: Jones vectors, sparse joint states, guards, registries."""

import copy
import math
import pickle

import numpy as np
import pytest

from teleoptics.elements import (
    jones_rotation,
    pbs_merge,
    pol_rotate_to_h,
    symmetric_bs,
)
from teleoptics.errors import (
    GuardViolation,
    NormalizationError,
    RegistryError,
    SimulationError,
)
from teleoptics.protocol import alice_transform, branch_table, preparer_encode, source_state
from teleoptics.states import (
    BasisKet,
    JointState,
    JonesVector,
    ModeRegistry,
    PhotonState,
    Polarization,
    equal_up_to_global_phase,
    make_pair_state,
    random_jones,
)

H = Polarization.H
V = Polarization.V


# ---------------------------------------------------------------- Jones

def test_jones_accepts_normalized():
    v = JonesVector(0.6, 0.8j)
    assert v.alpha == 0.6 + 0j
    assert v.beta == 0.8j


def test_jones_rejects_unnormalized():
    with pytest.raises(NormalizationError):
        JonesVector(0.9, 0.9)


NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_jones_rejects_non_finite_components(bad):
    with pytest.raises(NormalizationError):
        JonesVector(bad, 0.0)
    with pytest.raises(NormalizationError):
        JonesVector(0.6, complex(0.8, bad))
    with pytest.raises(NormalizationError):
        JonesVector.from_components(bad, 0.0, 0.0, 0.0)
    with pytest.raises(NormalizationError):
        JonesVector.from_components(0.6, 0.0, 0.8, bad)
    with pytest.raises(NormalizationError):
        JonesVector.from_bloch(1.0, math.nan)


def test_from_bloch_poles_and_equator():
    assert JonesVector.from_bloch(0.0, 0.3).alpha == 1.0
    pole = JonesVector.from_bloch(math.pi, 0.0)
    assert abs(pole.alpha) < 1e-15 and abs(pole.beta - 1.0) < 1e-15
    eq = JonesVector.from_bloch(math.pi / 2, math.pi / 2)
    assert abs(eq.alpha - 1 / math.sqrt(2)) < 1e-15
    assert abs(eq.beta - 1j / math.sqrt(2)) < 1e-15


def test_from_bloch_rejects_theta_outside_range():
    with pytest.raises(SimulationError):
        JonesVector.from_bloch(-0.1, 0.0)
    with pytest.raises(SimulationError):
        JonesVector.from_bloch(math.pi + 0.1, 0.0)
    with pytest.raises(SimulationError, match="theta"):
        JonesVector.from_bloch(math.nan, 0.0)


def test_from_components_keeps_exact_literals():
    # (0.6, 0.8) is unit within float rounding; must survive untouched
    v = JonesVector.from_components(0.6, 0.0, 0.8, 0.0)
    assert v.alpha == 0.6 + 0j
    assert v.beta == 0.8 + 0j


def test_from_components_renormalizes_slightly_off_literals():
    v = JonesVector.from_components(0.6 + 3e-8, 0.0, 0.8, 0.0)
    assert abs(abs(v.alpha) ** 2 + abs(v.beta) ** 2 - 1.0) < 1e-14


def test_from_components_rejects_beyond_tolerance():
    with pytest.raises(NormalizationError):
        JonesVector.from_components(0.9, 0.0, 0.9, 0.0)


def test_inner_is_conjugate_linear_in_self():
    u = JonesVector(1.0, 0.0)
    w = JonesVector(0.0, 1j)
    assert u.inner(w) == 0.0
    d = JonesVector(1 / math.sqrt(2), 1j / math.sqrt(2))
    assert abs(d.inner(w) - 1 / math.sqrt(2)) < 1e-15


def test_fidelity_ignores_global_phase():
    u = JonesVector(0.6, 0.8)
    w = JonesVector(-0.6, -0.8)
    assert abs(u.fidelity(w) - 1.0) < 1e-15


def test_random_jones_normalized_and_deterministic():
    g1 = np.random.default_rng(5)
    g2 = np.random.default_rng(5)
    a = random_jones(g1)
    b = random_jones(g2)
    assert a == b
    assert abs(abs(a.alpha) ** 2 + abs(a.beta) ** 2 - 1.0) < 1e-12


# ------------------------------------------------------------- registry

def test_registry_append_only():
    reg = ModeRegistry()
    reg2 = reg.with_modes(1, ["a", "b"]).with_modes(2, ["a'"])
    assert reg.modes(1) == frozenset()
    assert reg2.has(1, "a") and reg2.has(2, "a'")
    assert not reg2.has(2, "a")


def test_registry_rejects_bad_photon_and_empty_name():
    reg = ModeRegistry()
    with pytest.raises(RegistryError, match="photon must be 1 or 2"):
        reg.modes(3)
    with pytest.raises(RegistryError):
        reg.with_modes(1, [""])


def test_basis_kets_totally_ordered():
    k1 = BasisKet("1'", H, "a'", H)
    k2 = BasisKet("1'", H, "b'", H)
    k3 = BasisKet("1'", V, "a'", H)
    assert k1 < k2 < k3


# ----------------------------------------------------------- JointState

def test_pair_state_amplitudes():
    state = make_pair_state("a", "b", "a'", "b'")
    r = 1 / math.sqrt(2)
    assert abs(state.amplitude(("a", H, "a'", H)) - r) < 1e-15
    assert abs(state.amplitude(("b", H, "b'", H)) - r) < 1e-15
    assert state.amplitude(("a", H, "b'", H)) == 0j
    assert abs(state.squared_norm() - 1.0) < 1e-15


def test_pair_state_requires_distinct_modes():
    with pytest.raises(RegistryError):
        make_pair_state("a", "a", "a'", "b'")


def test_pair_state_checks_registry_side():
    reg = ModeRegistry(frozenset(["a", "b"]), frozenset(["a'", "b'"]))
    with pytest.raises(RegistryError, match="photon 1"):
        make_pair_state("a'", "b", "a", "b'", registry=reg)


def test_joint_state_sorts_prunes_and_validates():
    reg = ModeRegistry(frozenset(["a", "b"]), frozenset(["c"]))
    state = JointState(
        {("b", V, "c", H): 0.8, ("a", H, "c", H): 0.6, ("a", V, "c", H): 1e-17},
        reg,
    )
    assert [k.mode1 for k, _ in state.items()] == ["a", "b"]
    assert len(state) == 2  # tiny amplitude pruned


def test_joint_state_rejects_duplicates_and_foreign_modes():
    reg = ModeRegistry(frozenset(["1"]), frozenset(["c"]))
    # the int key 1 and the string key "1" coerce to the same basis ket
    with pytest.raises(RegistryError, match="duplicate basis ket"):
        JointState({(1, H, "c", H): 0.5, ("1", H, "c", H): 0.5}, reg)
    with pytest.raises(RegistryError, match="duplicate pair"):
        PhotonState({(1, H): 0.5, ("1", H): 0.5}, {"1"})
    with pytest.raises(RegistryError):
        JointState({("x", H, "c", H): 1.0}, reg)


def test_joint_state_rejects_norm_above_one():
    reg = ModeRegistry(frozenset(["a"]), frozenset(["c"]))
    with pytest.raises(NormalizationError):
        JointState({("a", H, "c", H): 1.0, ("a", V, "c", H): 0.5}, reg)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_joint_and_photon_states_reject_non_finite_amplitudes(bad):
    reg = ModeRegistry(frozenset(["a"]), frozenset(["c"]))
    with pytest.raises(NormalizationError):
        JointState({("a", H, "c", H): bad}, reg)
    with pytest.raises(NormalizationError):
        JointState({("a", H, "c", H): 0.6, ("a", V, "c", H): complex(0.0, bad)}, reg)
    with pytest.raises(NormalizationError):
        PhotonState({("a", H): bad}, {"a"})
    with pytest.raises(NormalizationError):
        PhotonState({("a", H): 0.6, ("a", V): complex(bad, 0.0)}, {"a"})


def test_joint_state_is_immutable():
    state = make_pair_state("a", "b", "a'", "b'")
    with pytest.raises(AttributeError):
        state.registry = ModeRegistry()


def test_inner_product_requires_same_registry():
    s1 = make_pair_state("a", "b", "a'", "b'")
    s2 = make_pair_state("a", "b", "a'", "c'")
    with pytest.raises(RegistryError):
        s1.inner_product(s2)


def test_apply_map_extends_registry_and_preserves_norm():
    state = make_pair_state("a", "b", "a'", "b'")
    moved = state.apply_one_photon_map(1, symmetric_bs("a", "b", "u", "v"))
    assert moved.registry.has(1, "u") and moved.registry.has(1, "v")
    assert abs(moved.squared_norm() - 1.0) < 1e-12
    with pytest.raises(RegistryError):
        state.apply_one_photon_map(1, symmetric_bs("x", "b", "u", "v"))


def test_rotation_to_h_passes_pure_h_through():
    # no V amplitude present: the element's input basis never fires and the
    # H amplitude must survive unchanged
    state = make_pair_state("a", "b", "a'", "b'")
    out = state.apply_one_photon_map(1, pol_rotate_to_h("a"))
    assert out.amplitude(("a", H, "a'", H)) == state.amplitude(("a", H, "a'", H))


def test_rotation_to_h_rejects_collision_with_existing_h():
    psi = JonesVector.from_bloch(1.0, 0.0)
    state = make_pair_state("a", "b", "a'", "b'")
    both = state.apply_one_photon_map(1, jones_rotation(psi, ("a", "b")))
    with pytest.raises(GuardViolation):
        both.apply_one_photon_map(1, pol_rotate_to_h("a"))


def test_merge_rejects_amplitude_on_wrong_polarization():
    state = make_pair_state("a", "b", "a'", "b'")
    # photon 1 carries H on both beams; the V-input port of a merge must balk
    with pytest.raises(GuardViolation):
        state.apply_one_photon_map(1, pbs_merge("a", "b", "o"))


# ---------------------------------------------------------- PhotonState

def test_photon_state_to_jones_and_guards():
    p = PhotonState({("o", H): 0.6, ("o", V): 0.8}, {"o", "x"})
    jones = p.to_jones("o")
    assert jones == JonesVector(0.6, 0.8)
    stray = PhotonState({("o", H): 0.6, ("x", H): 0.8}, {"o", "x"})
    with pytest.raises(GuardViolation):
        stray.to_jones("o")


def test_photon_state_direction_vector_requires_h_rails():
    p = PhotonState({("a", H): 0.6, ("b", H): 0.8}, {"a", "b"})
    vec = p.direction_vector("a", "b")
    assert np.allclose(vec, [0.6, 0.8])
    bad = PhotonState({("a", V): 1.0}, {"a", "b"})
    with pytest.raises(GuardViolation):
        bad.direction_vector("a", "b")


def test_photon_state_normalized():
    p = PhotonState({("a", H): 0.5}, {"a"})
    n = p.normalized()
    assert abs(n.squared_norm() - 1.0) < 1e-15
    empty = PhotonState({}, {"a"})
    with pytest.raises(NormalizationError):
        empty.normalized()


def test_equal_up_to_global_phase():
    p = PhotonState({("a", H): 0.6, ("b", H): 0.8}, {"a", "b"})
    q = PhotonState({("a", H): 0.6j, ("b", H): 0.8j}, {"a", "b"})
    r = PhotonState({("a", H): 0.8, ("b", H): 0.6}, {"a", "b"})
    assert equal_up_to_global_phase(p, q)
    assert not equal_up_to_global_phase(p, r)


@pytest.mark.parametrize("duplicate", [
    lambda state: pickle.loads(pickle.dumps(state)),
    copy.copy,
    copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_states_survive_pickle_and_copy(duplicate, generic_psi):
    joint = source_state()
    table = branch_table(alice_transform(preparer_encode(joint, generic_psi)))
    conditional = next(c for c in table.conditionals if c is not None)
    for state in (joint, conditional):
        twin = duplicate(state)
        assert type(twin) is type(state)
        assert twin == state
        assert hash(twin) == hash(state)
        assert list(twin.items()) == list(state.items())
    assert all(type(key) is BasisKet for key, _ in duplicate(joint).items())
