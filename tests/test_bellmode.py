"""Bell-inequality operation: POVM algebra, correlators, efficiency sweep."""

import math

import numpy as np
import pytest

from teleoptics.bellmode import (
    BINNING_CLASSES,
    DEFAULT_BINNING,
    AliceStrategy,
    BobSetting,
    CorrelationTable,
    chsh_scan,
    default_scan_config,
    efficiency_report,
    exact_correlator,
    grid_search_chsh,
    joint_distribution,
    povm_elements,
)
from teleoptics.elements import jones_rotation
from teleoptics.errors import SimulationError
from teleoptics.protocol import OUTCOMES, alice_analyzer, source_state
from teleoptics.states import JonesVector, PhotonState

from conftest import haar_states

SQRT_HALF = 1 / math.sqrt(2)


# ---------------------------------------------------------------- strategy types


def test_bob_setting_basis_is_orthonormal():
    setting = BobSetting(1.1, 0.4)
    plus, minus = setting.basis()
    assert abs(np.vdot(plus, plus) - 1) < 1e-15
    assert abs(np.vdot(minus, minus) - 1) < 1e-15
    assert abs(np.vdot(plus, minus)) < 1e-15


def test_bob_setting_theta_range_enforced():
    with pytest.raises(SimulationError):
        BobSetting(-0.1, 0.0)
    with pytest.raises(SimulationError):
        BobSetting(math.pi + 0.1, 0.0)


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_non_finite_inputs_are_rejected(bad):
    with pytest.raises(SimulationError):
        BobSetting(bad, 0.0)
    with pytest.raises(SimulationError):
        BobSetting(1.0, bad)
    encodings = (JonesVector(1.0, 0.0), JonesVector(0.0, 1.0))
    probabilities = np.full((1, 4, 2), 0.125)
    probabilities[0, 2, 1] = bad
    with pytest.raises(SimulationError):
        CorrelationTable(encodings[:1], BobSetting(1.0, 0.0), probabilities)


def test_bob_setting_bloch_vector():
    assert np.allclose(BobSetting(0.0, 0.0).bloch_vector(), [0, 0, 1], atol=1e-15)
    assert np.allclose(BobSetting(math.pi / 2, 0.0).bloch_vector(),
                       [1, 0, 0], atol=1e-15)
    assert np.allclose(BobSetting(math.pi / 2, math.pi / 2).bloch_vector(),
                       [0, 1, 0], atol=1e-15)


# ---------------------------------------------------------------- POVM algebra


def test_povm_completeness_for_random_encodings():
    for psi in haar_states(100, seed=41):
        total = sum(povm_elements(psi))
        assert np.max(np.abs(total - np.eye(2))) < 1e-12


def test_povm_elements_positive_semidefinite(generic_psi):
    for element in povm_elements(generic_psi):
        assert np.min(np.linalg.eigvalsh(element)) > -1e-12


def test_povm_pole_encoding_closed_form():
    elements = povm_elements(JonesVector(1.0, 0.0))
    half = 0.5
    assert np.allclose(elements[0], [[0, 0], [0, half]], atol=1e-15)
    assert np.allclose(elements[1], [[half, 0], [0, 0]], atol=1e-15)
    assert np.allclose(elements[2], [[half, 0], [0, 0]], atol=1e-15)
    assert np.allclose(elements[3], [[0, 0], [0, half]], atol=1e-15)


def test_povm_matches_single_photon_station(generic_psi):
    # one photon sent through the real encoding station must click with the
    # Born probabilities the effect operators predict
    for chi in haar_states(20, seed=42):
        state = PhotonState({("a", 0): chi.alpha, ("b", 0): chi.beta},
                            frozenset({"a", "b"}))
        state = state.apply_map(jones_rotation(generic_psi, ("a", "b")))
        for element in alice_analyzer():
            state = state.apply_map(element)
        vec = chi.as_array()
        for outcome, effect in zip(OUTCOMES, povm_elements(generic_psi)):
            amp = state.amplitude((outcome.detector_mode, 0))
            born = float(np.real(np.conj(vec) @ effect @ vec))
            assert abs(abs(amp) ** 2 - born) < 1e-12


def test_povm_maximally_mixed_input_is_uniform(generic_psi):
    for effect in povm_elements(generic_psi):
        assert abs(np.trace(effect).real / 2 - 0.25) < 1e-15


# ---------------------------------------------------------------- joint statistics


def test_joint_distribution_normalization(generic_psi):
    strategy = AliceStrategy((generic_psi, JonesVector(0.0, 1.0)))
    table = joint_distribution(strategy, BobSetting(0.7, 0.3))
    for i in range(2):
        assert abs(table.probabilities[i].sum() - 1.0) < 1e-12
        assert np.allclose(table.alice_marginal(i), 0.25, atol=1e-12)


def test_joint_distribution_bob_marginal_ignores_encoding():
    # no-signaling: Bob's reduced statistics cannot depend on Alice's choice
    strategy = AliceStrategy(
        (JonesVector(SQRT_HALF, SQRT_HALF), JonesVector(0.6, 0.8)))
    setting = BobSetting(1.9, 2.4)
    table = joint_distribution(strategy, setting)
    assert np.max(np.abs(table.bob_marginal(0) - table.bob_marginal(1))) < 1e-12


# ---------------------------------------------------------------- correlators


def test_exact_correlator_x_class_closed_form():
    # balanced real encoding binned (+,+,-,-) reads out the x axis:
    # E = cos(phi_b) * sin(theta_b) at 4 Re(alpha conj(beta)) = 1
    psi = JonesVector(SQRT_HALF, SQRT_HALF)
    setting = BobSetting(math.pi / 4, 0.0)
    value = exact_correlator(psi, setting, BINNING_CLASSES[0])
    assert abs(value - SQRT_HALF) < 1e-12


def test_exact_correlator_z_class_closed_form():
    # |V> encoding binned (+,-,-,+) reads out the z axis: E = -cos(theta_b)
    psi = JonesVector(0.0, 1.0)
    for theta in (0.0, 0.9, 2.2, math.pi):
        value = exact_correlator(psi, BobSetting(theta, 0.0), BINNING_CLASSES[2])
        assert abs(value - math.cos(theta)) < 1e-12


def test_default_binning_covers_all_outcomes():
    assert set(DEFAULT_BINNING) == set(OUTCOMES)
    assert set(DEFAULT_BINNING.values()) == {1, -1}


def test_binning_validation(generic_psi):
    setting = BobSetting(0.5, 0.0)
    with pytest.raises(SimulationError):
        exact_correlator(generic_psi, setting, {OUTCOMES[0]: 1})
    bad_value = dict(DEFAULT_BINNING)
    bad_value[OUTCOMES[0]] = 2
    with pytest.raises(SimulationError):
        exact_correlator(generic_psi, setting, bad_value)
    degenerate = {k: 1 for k in OUTCOMES}
    with pytest.raises(SimulationError):
        exact_correlator(generic_psi, setting, degenerate)


# ---------------------------------------------------------------- CHSH scan


def test_default_scan_reaches_tsirelson_exactly():
    config = default_scan_config(trials=2_000)
    result = chsh_scan(config.encodings, config.settings,
                       binning=config.binning, eta=1.0,
                       n_trials=config.trials, seed=config.seed)
    assert abs(result.exact_s - 2 * math.sqrt(2)) < 1e-12


def test_scan_empirical_matches_exact_within_error():
    config = default_scan_config(trials=40_000, seed=13)
    result = chsh_scan(config.encodings, config.settings,
                       binning=config.binning, n_trials=config.trials,
                       seed=config.seed)
    assert abs(result.empirical_s - result.exact_s) < 5 * result.stderr


def test_scan_shared_binning_cannot_break_classical_bound():
    # a single binning shared by both encodings fixes one observable for
    # Alice, which caps the combination at the classical value
    settings = (BobSetting(math.pi / 4, 0.0), BobSetting(3 * math.pi / 4, 0.0))
    for psi_pair in [
        (JonesVector(SQRT_HALF, SQRT_HALF), JonesVector(0.0, 1.0)),
        (JonesVector(1.0, 0.0), JonesVector(0.6, 0.8)),
    ]:
        result = chsh_scan(psi_pair, settings, binning=DEFAULT_BINNING,
                           n_trials=500, seed=3)
        assert abs(result.exact_s) <= 2 + 1e-12


def test_scan_is_deterministic():
    config = default_scan_config(trials=4_000, seed=29)
    first = chsh_scan(config.encodings, config.settings,
                      binning=config.binning, eta=0.8,
                      n_trials=config.trials, seed=config.seed)
    second = chsh_scan(config.encodings, config.settings,
                       binning=config.binning, eta=0.8,
                       n_trials=config.trials, seed=config.seed)
    assert first.empirical_s == second.empirical_s
    assert first.n_kept == second.n_kept


def test_scan_coincidence_tracks_efficiency():
    config = default_scan_config(trials=20_000, seed=5)
    for eta in (1.0, 0.6, 0.3):
        result = chsh_scan(config.encodings, config.settings,
                           binning=config.binning, eta=eta,
                           n_trials=config.trials, seed=config.seed)
        sigma = math.sqrt(eta * (1 - eta) / config.trials + 1e-12)
        assert abs(result.coincidence_rate - eta) < 5 * sigma + 1e-12


def test_scan_estimate_converges_like_root_n():
    config = default_scan_config()
    for n in (1_000, 10_000, 100_000):
        result = chsh_scan(config.encodings, config.settings,
                           binning=config.binning, n_trials=n, seed=17)
        assert abs(result.empirical_s - result.exact_s) < 5 * result.stderr


def test_scan_requires_two_by_two():
    config = default_scan_config()
    with pytest.raises(SimulationError):
        chsh_scan(config.encodings[:1], config.settings,
                  binning=config.binning, n_trials=100, seed=0)
    with pytest.raises(SimulationError):
        chsh_scan(config.encodings, config.settings[:1],
                  binning=config.binning, n_trials=100, seed=0)


# ---------------------------------------------------------------- efficiency sweep


def test_efficiency_report_unit_row_has_full_coincidence():
    config = default_scan_config(trials=5_000)
    rows = efficiency_report(config, (1.0,))
    assert rows[0].coincidence_rate == 1.0
    assert abs(rows[0].post_selected_s - 2 * math.sqrt(2)) < 5 * rows[0].stderr


def test_efficiency_report_coincidence_monotone_under_common_seed():
    # the kept sets nest across efficiencies when the seed is shared, so the
    # empirical coincidence rate is exactly monotone, not just statistically
    config = default_scan_config(trials=8_000, seed=23)
    grid = (1.0, 0.8, 0.6, 0.4, 0.2)
    rows = efficiency_report(config, grid)
    rates = [row.coincidence_rate for row in rows]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    sigma = math.sqrt(0.25 / config.trials)
    for eta, row in zip(grid, rows):
        assert abs(row.coincidence_rate - eta) < 5 * sigma + 1e-12


def test_efficiency_report_s_invariant_across_eta():
    config = default_scan_config(trials=30_000, seed=7)
    rows = efficiency_report(config, (1.0, 0.7, 0.4))
    reference = rows[0]
    for row in rows[1:]:
        combined = math.hypot(reference.stderr, row.stderr)
        assert abs(row.post_selected_s - reference.post_selected_s) < 5 * combined


def test_efficiency_report_rejects_empty_grid():
    config = default_scan_config(trials=100)
    with pytest.raises(SimulationError):
        efficiency_report(config, ())


@pytest.mark.parametrize("grid", [(None,), (1.0, "fast"), ["0.5"]])
def test_efficiency_report_rejects_non_numeric_grid(grid):
    with pytest.raises(SimulationError, match="eta grid must hold numbers"):
        efficiency_report(default_scan_config(trials=100), grid)


# ---------------------------------------------------------------- grid search


def test_grid_search_finds_violation():
    result = grid_search_chsh()
    assert result.s > 2.0
    assert abs(result.s - 2 * math.sqrt(2)) < 1e-12


def test_grid_search_result_is_consistent_with_scan():
    result = grid_search_chsh()
    scan = chsh_scan((result.encoding_a, result.encoding_b),
                     (result.setting_c, result.setting_d),
                     binning=(result.binning_a, result.binning_b),
                     n_trials=100, seed=0)
    assert abs(scan.exact_s - result.s) < 1e-12
