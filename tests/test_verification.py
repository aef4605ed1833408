"""Verification protocols: overlap oracles, subensembles, loss invariance."""

import math

import numpy as np
import pytest

from teleoptics.errors import SimulationError
from teleoptics.protocol import branch_states_polarization
from teleoptics.states import JonesVector
from teleoptics.verification import (
    CellStats,
    SubensembleReport,
    build_report,
    expected_rate_table,
    overlap_table,
    overlap_table_direct,
    run_verification,
    verify_direct,
    verify_full,
    verify_nonlocal,
)

from conftest import haar_states


def brute_force_overlaps(psi):
    """Direct 4x4 fidelity table from the decoded branch states."""
    states = [s.as_array() for s in branch_states_polarization(psi)]
    return np.array([[abs(np.vdot(u, v)) ** 2 for v in states] for u in states])


def test_overlap_table_diagonal_and_symmetry(generic_psi):
    table = overlap_table(generic_psi)
    assert np.allclose(np.diag(table), 1.0, atol=1e-14)
    assert np.allclose(table, table.T, atol=1e-14)
    assert np.max(np.abs(table - brute_force_overlaps(generic_psi))) < 1e-14


def test_overlap_table_pole_message_pattern():
    # at message |H>, branches 1 and 4 coincide up to sign, as do 2 and 3;
    # the two groups are orthogonal to each other
    table = overlap_table(JonesVector(1.0, 0.0))
    expected = np.array([
        [1.0, 0.0, 0.0, 1.0],
        [0.0, 1.0, 1.0, 0.0],
        [0.0, 1.0, 1.0, 0.0],
        [1.0, 0.0, 0.0, 1.0],
    ])
    assert np.max(np.abs(table - expected)) < 1e-14


def test_overlap_table_generic_message_strictly_between(generic_psi):
    table = overlap_table(generic_psi)
    off = table[~np.eye(4, dtype=bool)]
    assert np.all(off > 1e-6)
    assert np.all(off < 1 - 1e-6)


def test_merged_and_direct_tables_agree_for_random_messages():
    for psi in haar_states(50, seed=21):
        diff = np.max(np.abs(overlap_table(psi) - overlap_table_direct(psi)))
        assert diff < 1e-12


def test_expected_rate_table_variants(generic_psi):
    assert np.array_equal(expected_rate_table(generic_psi, "full"), np.ones((4, 4)))
    assert np.allclose(expected_rate_table(generic_psi, "merged"),
                       overlap_table(generic_psi), atol=1e-14)
    with pytest.raises(SimulationError):
        expected_rate_table(generic_psi, "sideways")


def test_verify_full_all_pass_at_unit_efficiency():
    report = verify_full(JonesVector(0.0, 1.0), 10_000, 1.0, 31)
    assert report.matched_pass_rate() == 1.0
    assert report.n_lost == 0


def test_verify_full_loss_does_not_touch_pass_rate(generic_psi):
    report = verify_full(generic_psi, 10_000, 0.5, 32)
    kept = report.n_trials - report.n_lost
    sigma = math.sqrt(0.25 / report.n_trials)
    assert abs(kept / report.n_trials - 0.5) < 5 * sigma
    assert report.matched_pass_rate() == 1.0


def test_verify_full_orthogonal_override_never_passes():
    psi = JonesVector(1.0, 0.0)
    report = verify_full(psi, 2_000, 1.0, 33,
                         axis_override=JonesVector(0.0, 1.0))
    assert report.matched_pass_rate() == 0.0


def test_axis_override_is_rejected_outside_the_full_variant(generic_psi):
    with pytest.raises(SimulationError):
        run_verification(generic_psi, 10, 1.0, 0, "merged",
                         axis_override=JonesVector(0.0, 1.0))


def test_verify_nonlocal_matched_cells_certain(generic_psi):
    report = verify_nonlocal(generic_psi, 10_000, 1.0, 34)
    for key in report.matched_cells():
        stats = report.cells[key]
        assert stats.passes == stats.count
    assert report.matched_pass_rate() == 1.0


def test_verify_nonlocal_off_diagonal_rates_follow_overlaps(generic_psi):
    n = 20_000
    report = verify_nonlocal(generic_psi, n, 1.0, 35)
    oracle = overlap_table(generic_psi)
    empirical = report.empirical_table()
    for k in range(4):
        for j in range(4):
            cell = report.cells[(k + 1, f"D{j + 1}")]
            p = oracle[k, j]
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / cell.count)
            assert abs(empirical[k, j] - p) < 5 * sigma


def test_verify_nonlocal_coinciding_branches_pass_exactly():
    # at the balanced message, branches 1 and 2 are the same state, so the
    # mismatched cell still passes with certainty, not just almost
    psi = JonesVector(1 / math.sqrt(2), 1 / math.sqrt(2))
    report = verify_nonlocal(psi, 4_000, 1.0, 36)
    cell = report.cells[(1, "D2")]
    assert cell.passes == cell.count


def test_verify_direct_mirrors_nonlocal(generic_psi):
    n = 20_000
    report = verify_direct(generic_psi, n, 1.0, 37)
    for key in report.matched_cells():
        stats = report.cells[key]
        assert stats.passes == stats.count
    oracle = overlap_table_direct(generic_psi)
    empirical = report.empirical_table()
    for k in range(4):
        for j in range(4):
            cell = report.cells[(k + 1, f"D{j + 1}")]
            p = oracle[k, j]
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / cell.count)
            assert abs(empirical[k, j] - p) < 5 * sigma


def test_rate_tables_stable_under_loss(generic_psi):
    full = verify_nonlocal(generic_psi, 30_000, 1.0, 38)
    lossy = verify_nonlocal(generic_psi, 30_000, 0.5, 38)
    table_full = full.empirical_table()
    table_lossy = lossy.empirical_table()
    for k in range(4):
        for j in range(4):
            n_full = full.cells[(k + 1, f"D{j + 1}")].count
            n_lossy = lossy.cells[(k + 1, f"D{j + 1}")].count
            p = table_full[k, j]
            sigma = math.sqrt(max(p * (1 - p), 1e-12) * (1 / n_full + 1 / n_lossy))
            assert abs(table_full[k, j] - table_lossy[k, j]) < 5 * sigma + 1e-9


def test_empty_cells_reported_absent_not_zero(generic_psi):
    records, report = run_verification(generic_psi, 3, 1.0, 39, "merged")
    assert len(records) == 3
    assert report.pass_rate(1, "D1") is None or isinstance(
        report.pass_rate(1, "D1"), float)
    table = report.empirical_table()
    assert np.isnan(table).sum() >= 16 - 3


def test_build_report_counts_and_cellstats():
    from teleoptics.sampling import EventRecord

    records = [
        EventRecord(0, None, "D1", None, 1, True),
        EventRecord(1, None, "D1", None, 1, False),
        EventRecord(2, None, None, None, 2, None),
    ]
    report = build_report("merged", records)
    assert report.n_trials == 3
    assert report.n_lost == 1
    stats = report.cells[(1, "D1")]
    assert stats == CellStats(2, 1)
    assert stats.rate == 0.5
    assert abs(stats.stderr() - math.sqrt(0.25 / 2)) < 1e-15
    assert CellStats(0, 0).rate is None
    assert CellStats(0, 0).stderr() is None


def test_matched_cells_full_variant_uses_no_setting():
    report = SubensembleReport("full", 0, 0, {})
    assert report.matched_cells() == ((0, "D1"), (0, "D2"), (0, "D3"), (0, "D4"))
    assert report.matched_pass_rate() is None
