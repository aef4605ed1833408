"""Event sampling: determinism, loss model, calibration, verifier draws."""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import teleoptics
from teleoptics.bellmode import chsh_scan, default_scan_config
from teleoptics.dsl import compile_and_run, parse
from teleoptics.errors import SimulationError
from teleoptics.protocol import OUTCOMES
from teleoptics.sampling import (
    DetectorModel,
    EventRecord,
    StationConfig,
    outcome_counts,
    polarizer_pass,
    run_trials,
    sample_branch_index,
    trial_stream,
)
from teleoptics.states import JonesVector

QUARTERS = (0.25, 0.25, 0.25, 0.25)


def test_detector_model_range():
    DetectorModel(0.0)
    DetectorModel(1.0)
    with pytest.raises(SimulationError):
        DetectorModel(1.5)
    with pytest.raises(SimulationError):
        DetectorModel(-0.1)


def test_trial_streams_are_reproducible_and_independent():
    a = trial_stream(42, 7).random(5)
    b = trial_stream(42, 7).random(5)
    c = trial_stream(42, 8).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sampler_edge_efficiencies():
    rng = trial_stream(0, 0)
    assert all(
        sample_branch_index(QUARTERS, DetectorModel(0.0), trial_stream(0, t)) is None
        for t in range(200)
    )
    assert all(
        sample_branch_index(QUARTERS, DetectorModel(1.0), trial_stream(0, t)) is not None
        for t in range(200)
    )
    del rng


def test_sampler_frequencies_within_five_sigma():
    n = 100_000
    counts = [0, 0, 0, 0]
    for t in range(n):
        idx = sample_branch_index(QUARTERS, DetectorModel(1.0), trial_stream(3, t))
        counts[idx] += 1
    sigma = math.sqrt(0.25 * 0.75 / n)
    for c in counts:
        assert abs(c / n - 0.25) < 5 * sigma


def test_sampler_loss_rate_within_five_sigma():
    n = 100_000
    lost = sum(
        1 for t in range(n)
        if sample_branch_index(QUARTERS, DetectorModel(0.5), trial_stream(4, t)) is None
    )
    sigma = math.sqrt(0.5 * 0.5 / n)
    assert abs(lost / n - 0.5) < 5 * sigma


def test_sampler_rejects_bad_probability_sum():
    with pytest.raises(SimulationError):
        sample_branch_index((0.5, 0.1), DetectorModel(1.0), trial_stream(0, 0))


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_sampler_rejects_non_finite_probabilities(bad):
    for pmf in ((0.25, 0.25, 0.25, bad), (bad, 0.25, 0.25, 0.25), (1.0, bad)):
        with pytest.raises(SimulationError):
            sample_branch_index(pmf, DetectorModel(1.0), trial_stream(0, 0))


def test_negative_seed_or_trial_index_is_rejected_by_every_trial_loop():
    with pytest.raises(SimulationError):
        trial_stream(-1, 0)
    with pytest.raises(SimulationError):
        trial_stream(0, -1)
    with pytest.raises(SimulationError, match="seed must be an integer"):
        trial_stream(1.5, 0)
    with pytest.raises(SimulationError, match="trial must be an integer"):
        trial_stream(0, 2.5)
    with pytest.raises(SimulationError):
        run_trials(JonesVector(1.0, 0.0), 5, DetectorModel(1.0), -1, StationConfig())
    config = default_scan_config(trials=5)
    with pytest.raises(SimulationError):
        chsh_scan(config.encodings, config.settings, n_trials=5, seed=-1)
    fig1 = Path(teleoptics.__file__).parent / "circuits" / "fig1.opt"
    program = parse(fig1.read_text(encoding="utf-8")).program
    with pytest.raises(SimulationError):
        compile_and_run(program, trials=5, seed=-1)
    psi = JonesVector(1.0, 0.0)
    with pytest.raises(SimulationError):
        run_trials(psi, 1.5, DetectorModel(1.0), 0, StationConfig())
    with pytest.raises(SimulationError):
        run_trials(psi, 5, DetectorModel(1.0), 1.5, StationConfig())
    with pytest.raises(SimulationError):
        chsh_scan(config.encodings, config.settings, n_trials=2.5)
    with pytest.raises(SimulationError):
        compile_and_run(program, trials=2.5)


def test_polarizer_pass_certainty_and_malus():
    axis = JonesVector.from_bloch(1.1, 0.4)
    assert all(polarizer_pass(axis, axis, trial_stream(6, t)) for t in range(500))
    orthogonal = JonesVector(axis.beta.conjugate(), -axis.alpha.conjugate())
    assert not any(
        polarizer_pass(orthogonal, axis, trial_stream(7, t)) for t in range(500)
    )
    n = 100_000
    h = JonesVector(1.0, 0.0)
    diag = JonesVector(1 / math.sqrt(2), 1 / math.sqrt(2))
    passed = sum(1 for t in range(n) if polarizer_pass(h, diag, trial_stream(8, t)))
    sigma = math.sqrt(0.25 / n)
    assert abs(passed / n - 0.5) < 5 * sigma


def test_run_trials_is_deterministic(generic_psi):
    kwargs = dict(n_trials=300, detector=DetectorModel(0.8), seed=99,
                  stations=StationConfig(correction=True, verifier="parallel"))
    first = run_trials(generic_psi, **kwargs)
    second = run_trials(generic_psi, **kwargs)
    assert first == second
    kwargs.update(n_trials=np.int64(300), seed=np.uint32(99))
    assert run_trials(generic_psi, **kwargs) == first
    assert [r.trial for r in first] == list(range(300))


def test_run_trials_full_station_always_passes(generic_psi):
    records = run_trials(generic_psi, 2000, DetectorModel(1.0), 1,
                         StationConfig(correction=True, verifier="parallel"))
    assert all(r.passed for r in records)


def test_run_trials_outcome_frequency(generic_psi):
    n = 100_000
    records = run_trials(generic_psi, n, DetectorModel(1.0), 2,
                         StationConfig(correction=True, verifier=None))
    counts = outcome_counts(records)
    sigma = math.sqrt(0.25 * 0.75 / n)
    assert abs(counts["D3"] / n - 0.25) < 5 * sigma
    assert counts["lost"] == 0


def test_run_trials_random_message_mode():
    records = run_trials(None, 50, DetectorModel(1.0), 10,
                         StationConfig(correction=True, verifier="parallel"))
    messages = {(r.psi.alpha, r.psi.beta) for r in records}
    assert len(messages) == 50  # fresh Haar draw per trial
    assert all(r.passed for r in records)


def test_run_trials_setting_draws_cover_range(generic_psi):
    records = run_trials(generic_psi, 400, DetectorModel(1.0), 11,
                         StationConfig(correction=False, verifier="merged"))
    assert {r.verifier_setting for r in records} == {1, 2, 3, 4}


def test_lost_records_have_no_downstream_fields(generic_psi):
    records = run_trials(generic_psi, 400, DetectorModel(0.3), 12,
                         StationConfig(correction=True, verifier="parallel"))
    lost = [r for r in records if r.lost]
    assert lost, "expected some lost trials at eta=0.3"
    assert all(r.correction is None and r.passed is None for r in lost)


def test_run_trials_rejects_zero_trials(generic_psi):
    with pytest.raises(SimulationError):
        run_trials(generic_psi, 0, DetectorModel(1.0), 0, StationConfig())


def test_station_config_validation():
    with pytest.raises(SimulationError):
        StationConfig(verifier="sideways")
    with pytest.raises(SimulationError):
        StationConfig(correction=True, verifier="merged")
    with pytest.raises(SimulationError):
        StationConfig(correction=False, verifier="direct",
                      axis_override=JonesVector(1.0, 0.0))
    with pytest.raises(SimulationError):
        StationConfig(correction=False, verifier="parallel")


def test_event_record_invariant():
    with pytest.raises(SimulationError):
        EventRecord(0, None, None, None, None, True)


def test_chi_square_calibration_moderate_n(generic_psi):
    eta = 0.7
    n = 20_000
    records = run_trials(generic_psi, n, DetectorModel(eta), 13,
                         StationConfig(correction=True, verifier=None))
    counts = outcome_counts(records)
    observed = [counts[o.value] for o in OUTCOMES] + [counts["lost"]]
    expected = [n * eta / 4] * 4 + [n * (1 - eta)]
    result = stats.chisquare(observed, expected)
    assert result.pvalue > 0.001
