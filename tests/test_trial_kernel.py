"""The columnar trial kernel: bit-exact streams, the scalar oracle, and the
contracts the sampled paths rest on (prefix runs, nesting kept sets, chunk
independence)."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import teleoptics
from teleoptics import bellmode, dsl, sampling
from teleoptics.bellmode import BINNING_CLASSES, chsh_scan, default_scan_config
from teleoptics.errors import SimulationError
from teleoptics.sampling import DetectorModel, StationConfig, run_trials, trial_stream
from teleoptics.states import JonesVector

from scalar_oracle import scalar_columns

FIG1 = Path(teleoptics.__file__).parent / "circuits" / "fig1.opt"
POLARIZER_CIRCUIT = dsl.parse(
    FIG1.read_text(encoding="utf-8") + "polarizer 2 o 0.6 0 0.8 0\n").program
PSI = JonesVector.from_bloch(1.1, 0.4)
STATIONS = {
    "none": StationConfig(correction=True, verifier=None),
    "parallel": StationConfig(correction=True, verifier="parallel"),
    "merged": StationConfig(correction=False, verifier="merged"),
    "direct": StationConfig(correction=False, verifier="direct"),
}
#: Seeds of one, two, three and four 32-bit words.
SEEDS = st.integers(0, 2**128)
BINNINGS = {
    "shared": BINNING_CLASSES[0],
    "pair": (BINNING_CLASSES[0], BINNING_CLASSES[2]),
}


def with_seeds(test):
    """Hypothesis over seeds, always including the multi-word ones."""
    for seed in (2**32 + 5, 2**63 + 11, 2**127 + 3):
        test = example(seed=seed)(test)
    return settings(max_examples=3, deadline=None)(given(seed=SEEDS)(test))


def chsh(seed: int, eta: float, binning, n_trials: int = 300):
    config = default_scan_config()
    result = chsh_scan(config.encodings, config.settings, binning=binning, eta=eta,
                       n_trials=n_trials, seed=seed)
    return (result.n_kept, result.empirical_s, result.stderr,
            *result.empirical_correlators.reshape(4))


def same(a, b) -> bool:
    """Equality that counts NaN equal to NaN, for CHSH rows with no kept trial."""
    return len(a) == len(b) and all(
        x == y or (isinstance(x, float) and math.isnan(x) and math.isnan(y))
        for x, y in zip(a, b))


# ------------------------------------------------------------------ streams


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**63 + 11, 2**127 + 3, 2**128 + 9])
def test_stream_words_equal_numpy_across_two_word_spawn_keys(seed):
    start = 2**32 - 3  # spawn keys of one, then two, 32-bit words
    words = sampling._stream_words(seed, start, start + 6, 4)
    for k in range(6):
        raw = trial_stream(seed, start + k).bit_generator.random_raw(4)
        assert np.array_equal(words[:, k], raw)


def test_trial_counts_past_uint64_are_rejected():
    with pytest.raises(SimulationError, match="at most 2\\*\\*64"):
        run_trials(PSI, 2**64 + 1, DetectorModel(1.0), 0, StationConfig())


def test_stream_self_check_fails_loudly_when_numpy_streams_differ(monkeypatch):
    stream_words = sampling._stream_words
    monkeypatch.setattr(sampling, "_stream_words",
                        lambda *args: stream_words(*args) ^ np.uint64(1 << 40))
    with pytest.raises(SimulationError, match=f"numpy {np.__version__}"):
        sampling._check_streams.__wrapped__()
    monkeypatch.undo()
    sampling._check_streams.__wrapped__()


@pytest.mark.parametrize("pmf", [(0.5, 0.1), (0.25, 0.25, 0.25, math.nan)])
def test_bad_pmf_raises_only_once_a_kept_trial_reaches_it(pmf):
    assert all((index == -1).all() for _, _, index, _ in
               sampling._trial_columns(0, 50, DetectorModel(0.0), pmf))
    with pytest.raises(SimulationError, match="branch probabilities sum to"):
        list(sampling._trial_columns(0, 50, DetectorModel(1.0), pmf))


# ------------------------------------------------------------ scalar oracle


@pytest.mark.parametrize("eta", [1.0, 0.85, 0.0])
@pytest.mark.parametrize("psi", [PSI, None], ids=["fixed", "haar"])
@pytest.mark.parametrize("station", sorted(STATIONS))
@with_seeds
def test_run_trials_columns_equal_scalar_oracle(station, psi, eta, seed):
    args = (psi, 200, DetectorModel(eta), seed, STATIONS[station])
    kernel = run_trials(*args)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sampling, "_trial_columns", scalar_columns)
        assert run_trials(*args) == kernel


@pytest.mark.parametrize("eta", [1.0, 0.85, 0.0])
@with_seeds
def test_circuit_with_closing_polarizer_equals_scalar_oracle(eta, seed):
    kernel = dsl.compile_and_run(POLARIZER_CIRCUIT, trials=200, seed=seed, eta=eta).records
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dsl, "_trial_columns", scalar_columns)
        oracle = dsl.compile_and_run(POLARIZER_CIRCUIT, trials=200, seed=seed, eta=eta)
    assert oracle.records == kernel


@pytest.mark.parametrize("eta", [1.0, 0.85, 0.0])
@pytest.mark.parametrize("binning", sorted(BINNINGS))
@with_seeds
def test_chsh_scan_equals_scalar_oracle(binning, eta, seed):
    kernel = chsh(seed, eta, BINNINGS[binning])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bellmode, "_trial_columns", scalar_columns)
        assert same(chsh(seed, eta, BINNINGS[binning]), kernel)


@pytest.mark.parametrize("lead, pmfs", [
    ((), (0.1, 0.2, 0.3, 0.4)),
    ((4,), (0.25, 0.25, 0.25, 0.25)),
    ((2, 2), np.random.default_rng(0).dirichlet(np.ones(8), size=(2, 2))),
])
@with_seeds
def test_kernel_columns_equal_scalar_oracle(lead, pmfs, seed):
    detector = DetectorModel(0.85)
    (_, columns, index, check), = sampling._trial_columns(seed, 300, detector, pmfs, lead)
    (_, oracle_columns, oracle_index, oracle_check), = scalar_columns(
        seed, 300, detector, pmfs, lead)
    assert len(columns) == len(oracle_columns) == len(lead)
    assert all(np.array_equal(a, b) for a, b in zip(columns, oracle_columns))
    assert np.array_equal(index, oracle_index)
    kept = index >= 0
    assert np.array_equal(check[kept], oracle_check[kept])


# --------------------------------------------------------------- contracts


@settings(max_examples=5, deadline=None)
@given(seed=SEEDS, n=st.integers(1, 300), extra=st.integers(1, 300))
@example(seed=2**63 + 11, n=7, extra=1)
def test_a_run_is_a_prefix_of_any_longer_run(seed, n, extra):
    for psi in (PSI, None):
        longer = run_trials(psi, n + extra, DetectorModel(0.8), seed, STATIONS["merged"])
        assert run_trials(psi, n, DetectorModel(0.8), seed, STATIONS["merged"]) == longer[:n]
    longer = dsl.compile_and_run(POLARIZER_CIRCUIT, trials=n + extra, seed=seed, eta=0.8)
    shorter = dsl.compile_and_run(POLARIZER_CIRCUIT, trials=n, seed=seed, eta=0.8)
    assert shorter.records == longer.records[:n]


@settings(max_examples=5, deadline=None)
@given(seed=SEEDS, etas=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=4))
@example(seed=2**127 + 3, etas=[1.0, 0.5, 0.0])
def test_kept_trial_sets_nest_as_efficiency_falls(seed, etas):
    def kept(eta):
        records = run_trials(PSI, 500, DetectorModel(eta), seed, STATIONS["parallel"])
        circuit = dsl.compile_and_run(POLARIZER_CIRCUIT, trials=500, seed=seed, eta=eta)
        return ({r.trial for r in records if not r.lost},
                {r.trial for r in circuit.records if not r.lost})

    sets = [kept(eta) for eta in sorted(etas, reverse=True)]
    for higher, lower in zip(sets, sets[1:]):
        assert lower[0] <= higher[0] and lower[1] <= higher[1]


@settings(max_examples=3, deadline=None)
@given(seed=SEEDS, chunk=st.integers(1, 64))
@example(seed=2**32 + 5, chunk=7)
def test_columns_do_not_depend_on_the_chunk_size(seed, chunk):
    def outputs():
        return ([run_trials(psi, 150, DetectorModel(0.85), seed, STATIONS[station])
                 for psi in (PSI, None) for station in ("none", "direct")],
                dsl.compile_and_run(POLARIZER_CIRCUIT, trials=150, seed=seed,
                                    eta=0.85).records,
                chsh(seed, 0.85, BINNINGS["pair"], n_trials=150))

    whole = outputs()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sampling, "_CHUNK", chunk)
        chunked = outputs()
    assert chunked[:2] == whole[:2]
    assert same(chunked[2], whole[2])
