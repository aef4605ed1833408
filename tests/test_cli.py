"""Command-line crust: flags, exit codes, event files, reproducibility."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import teleoptics
from teleoptics.cli import main, write_events
from teleoptics.errors import SimulationError
from teleoptics.sampling import EventRecord

FIG1 = str(Path(teleoptics.__file__).parent / "circuits" / "fig1.opt")
JSONL_KEYS = {"trial", "outcome", "correction_c1", "correction_c2",
              "verifier_setting", "passed"}
CORRECTIONS = {"D1": (False, False), "D2": (False, True),
               "D3": (True, True), "D4": (True, False)}


def jsonl_lines(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line]


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- teleport


def test_teleport_writes_jsonl_records(capsys):
    code, out, err = run_cli(capsys, "teleport", "--theta", "1.1", "--phi", "0.4",
                             "--trials", "25", "--seed", "3")
    assert code == 0
    lines = jsonl_lines(out)
    assert len(lines) == 25
    for i, payload in enumerate(lines):
        assert set(payload) == JSONL_KEYS
        assert payload["trial"] == i
        assert payload["outcome"] in CORRECTIONS
        expected = CORRECTIONS[payload["outcome"]]
        assert (payload["correction_c1"], payload["correction_c2"]) == expected
        assert payload["verifier_setting"] is None
        assert payload["passed"] is None
    assert "teleport: trials=25 kept=25 lost=0" in err


def test_teleport_accepts_explicit_components(capsys):
    code, out, _ = run_cli(capsys, "teleport", "--psi", "0.6", "0", "0.8", "0",
                           "--trials", "5")
    assert code == 0
    assert len(jsonl_lines(out)) == 5


def test_teleport_lossy_records_are_null_padded(capsys):
    code, out, err = run_cli(capsys, "teleport", "--theta", "2.0",
                             "--trials", "60", "--seed", "8", "--eta", "0.3")
    assert code == 0
    lines = jsonl_lines(out)
    lost = [p for p in lines if p["outcome"] == "lost"]
    assert lost, "efficiency 0.3 over 60 trials should lose something"
    for payload in lost:
        assert payload["correction_c1"] is None
        assert payload["correction_c2"] is None
        assert payload["passed"] is None
    assert f"lost={len(lost)}" in err


def test_teleport_event_files_are_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for path in paths:
        code, _, _ = run_cli(capsys, "teleport", "--theta", "0.7",
                             "--trials", "40", "--seed", "12", "--eta", "0.8",
                             "--out", str(path))
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_teleport_csv_summary(capsys):
    code, out, _ = run_cli(capsys, "teleport", "--theta", "1.1",
                           "--trials", "50", "--seed", "2", "--format", "csv")
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "outcome,count,frequency,pass_count,pass_rate"
    body = [row.split(",") for row in rows[1:]]
    assert [r[0] for r in body] == ["D1", "D2", "D3", "D4", "lost"]
    counts = [int(r[1]) for r in body]
    assert sum(counts) == 50
    for row, count in zip(body, counts):
        # 17 significant digits must round-trip the exact double
        assert float(row[2]) == count / 50
        assert row[3] == "" and row[4] == ""


# ---------------------------------------------------------------- verify family


def test_verify_full_records_pass_flag(capsys):
    code, out, err = run_cli(capsys, "verify", "--theta", "1.1", "--phi", "0.4",
                             "--trials", "30", "--seed", "4")
    assert code == 0
    for payload in jsonl_lines(out):
        assert payload["verifier_setting"] is None
        assert payload["passed"] is True
    assert "matched pass rate: 1" in err


def test_verify_nonlocal_sweeps_settings(capsys):
    code, out, err = run_cli(capsys, "verify", "--protocol", "nonlocal",
                             "--theta", "1.1", "--trials", "200", "--seed", "5")
    assert code == 0
    settings = {p["verifier_setting"] for p in jsonl_lines(out)}
    assert settings == {1, 2, 3, 4}
    assert "verify (nonlocal)" in err


def test_verify_direct_runs(capsys):
    code, out, err = run_cli(capsys, "verify-direct", "--theta", "1.1",
                             "--trials", "200", "--seed", "6")
    assert code == 0
    assert "verify (direct)" in err
    settings = {p["verifier_setting"] for p in jsonl_lines(out)}
    assert settings == {1, 2, 3, 4}


def test_verify_csv_has_pass_rates(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theta", "0.9",
                           "--trials", "40", "--seed", "7", "--format", "csv")
    assert code == 0
    body = [row.split(",") for row in out.splitlines()[1:]]
    outcome_rows = [r for r in body if r[0] != "lost"]
    assert outcome_rows
    for row in outcome_rows:
        assert row[3] != "" and float(row[4]) == 1.0


# ---------------------------------------------------------------- bell sweep


def test_bell_sweep_csv_schema(capsys):
    code, out, err = run_cli(capsys, "bell-sweep", "--trials", "400",
                             "--etas", "1.0", "0.5")
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "eta,post_selected_s,coincidence_rate"
    assert len(rows) == 3
    first = rows[1].split(",")
    assert float(first[0]) == 1.0
    assert float(first[2]) == 1.0
    assert "bell-sweep" in err


def test_bell_sweep_files_are_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code, _, _ = run_cli(capsys, "bell-sweep", "--trials", "300",
                             "--seed", "9", "--etas", "0.9", "0.6",
                             "--out", str(path))
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


# ---------------------------------------------------------------- dsl-run


def teleport_circuit(tmp_path) -> str:
    from importlib import resources

    text = (resources.files("teleoptics") / "circuits" / "fig1.opt").read_text()
    path = tmp_path / "circuit.opt"
    path.write_text(text)
    return str(path)


def test_dsl_run_samples_records(tmp_path, capsys):
    path = teleport_circuit(tmp_path)
    code, out, err = run_cli(capsys, "dsl-run", path, "--trials", "10",
                             "--seed", "1")
    assert code == 0
    lines = jsonl_lines(out)
    assert len(lines) == 10
    assert all(p["outcome"] in CORRECTIONS for p in lines)
    assert "branches D1=0.25 D2=0.25 D3=0.25 D4=0.25" in err
    assert "wrote 10 records" in err


def test_dsl_run_without_trials_reports_table_only(tmp_path, capsys):
    path = teleport_circuit(tmp_path)
    code, out, err = run_cli(capsys, "dsl-run", path)
    assert code == 0
    assert out == ""
    assert "branches" in err


def test_dsl_run_diagnostics_exit_two(tmp_path, capsys):
    path = tmp_path / "broken.opt"
    path.write_text("modes 1 a b\nmodes 2 c d\npair a c b d\npbs 1 a\n")
    code, _, err = run_cli(capsys, "dsl-run", str(path))
    assert code == 2
    assert "line 4" in err
    assert "pbs takes 4 arguments" in err


def test_dsl_run_guard_exit_three(tmp_path, capsys):
    path = tmp_path / "guarded.opt"
    path.write_text("modes 1 a b\nmodes 2 c d\npair a c b d\nmerge 1 a b o\n")
    code, _, err = run_cli(capsys, "dsl-run", str(path))
    assert code == 3
    assert "runtime guard:" in err
    assert "line 4" in err


def test_dsl_run_missing_file_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "dsl-run", str(tmp_path / "absent.opt"))
    assert code == 1
    assert "cannot read" in err


# ---------------------------------------------------------------- usage errors


@pytest.mark.parametrize("argv", [
    (),
    ("teleport",),
    ("teleport", "--theta", "1.0", "--eta", "1.5"),
    ("teleport", "--theta", "1.0", "--trials", "0"),
    ("teleport", "--theta", "4.0"),
    ("teleport", "--theta", "1.0", "--psi", "1", "0", "0", "0"),
    ("teleport", "--psi", "0.9", "0", "0.9", "0"),
    ("teleport", "--theta", "1.0", "--format", "xml"),
    ("teleport", "--theta", "1.0", "--frobnicate"),
    ("verify", "--theta", "1.0", "--protocol", "psychic"),
    ("bell-sweep", "--trials", "0"),
    ("bell-sweep", "--etas", "1.5"),
    ("teleport", "--theta", "1.0", "--phi", "nan"),
    ("teleport", "--theta", "1.0", "--phi", "inf"),
    ("teleport", "--theta", "1.0", "--phi", "-inf"),
    ("teleport", "--theta", "nan"),
    ("teleport", "--theta", "inf"),
    ("teleport", "--psi", "nan", "0", "0", "0"),
    ("teleport", "--psi", "0.6", "0", "inf", "0"),
    ("verify-direct", "--psi", "0.6", "0", "0.8", "-inf"),
    ("teleport", "--theta", "1.0", "--seed", "-1"),
    ("bell-sweep", "--seed", "-1"),
    ("dsl-run", FIG1, "--trials", "3", "--seed", "-1"),
])
def test_usage_errors_exit_one(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert "error" in err or "usage" in err


@pytest.mark.parametrize("argv,needles", [
    (("--help",), ("teleport", "verify", "verify-direct", "bell-sweep", "dsl-run")),
    (("teleport", "--help"), ("--theta", "--phi", "--psi", "--trials", "--seed",
                              "--eta", "--out", "--format")),
    (("verify", "--help"), ("--protocol", "--theta")),
    (("verify-direct", "--help"), ("--theta", "--eta")),
    (("bell-sweep", "--help"), ("--etas", "--trials", "--seed", "--out")),
    (("dsl-run", "--help"), ("file", "--trials", "--eta")),
])
def test_help_lists_flags(capsys, argv, needles):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    for needle in needles:
        assert needle in out


def _run_module(*argv: str) -> subprocess.CompletedProcess:
    """`python -m teleoptics.cli` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(teleoptics.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "teleoptics.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_module_entry_point_runs_without_warnings():
    result = _run_module("--help")
    assert result.returncode == 0
    assert "RuntimeWarning" not in result.stderr


def test_negative_seed_is_a_usage_error_without_traceback():
    result = _run_module("teleport", "--theta", "1", "--seed", "-1")
    assert result.returncode == 1
    assert "--seed" in result.stderr
    assert "Traceback" not in result.stderr


def test_non_utf8_circuit_is_a_usage_error_without_traceback(tmp_path):
    path = tmp_path / "binary.opt"
    path.write_bytes(b"\xff\xfemodes 1 a b\n")
    result = _run_module("dsl-run", str(path))
    assert result.returncode == 1
    assert "cannot read" in result.stderr
    assert "Traceback" not in result.stderr


# ---------------------------------------------------------------- write_events


def test_write_events_rejects_unknown_format():
    with pytest.raises(SimulationError, match="unknown format"):
        write_events([], io.StringIO(), "yaml")


def test_write_events_empty_csv_is_header_only():
    sink = io.StringIO()
    write_events([], sink, "csv")
    assert sink.getvalue() == "outcome,count,frequency,pass_count,pass_rate\n"


def test_write_events_lost_only_summary():
    records = [EventRecord(0, None, None, None, None, None)]
    sink = io.StringIO()
    write_events(records, sink, "csv")
    rows = sink.getvalue().splitlines()
    assert rows[1] == "lost,1,1,,"
