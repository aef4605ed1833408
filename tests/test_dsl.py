"""Circuit language: tokenizer, parser diagnostics, runtime equivalence."""

import math
from importlib import resources
from pathlib import Path

import pytest

from teleoptics import dsl
from teleoptics.dsl import (
    CircuitRuntimeError,
    Diagnostic,
    compile_and_run,
    parse,
    pretty_print,
    tokenize,
)
from teleoptics.elements import ElementSpec
from teleoptics.errors import SimulationError
from teleoptics.protocol import alice_transform, preparer_encode, source_state
from teleoptics.sampling import DetectorModel, StationConfig, run_trials
from teleoptics.states import JonesVector, random_jones

import numpy as np

DATA_DIR = Path(__file__).parent / "data"


def builtin_circuit(name: str) -> str:
    return (resources.files("teleoptics") / "circuits" / name).read_text()


def fig1_text() -> str:
    return builtin_circuit("fig1.opt")


def teleport_text(psi: JonesVector) -> str:
    """The bundled teleport circuit with an arbitrary message literal."""
    literal = " ".join(repr(v) for v in (psi.alpha.real, psi.alpha.imag,
                                         psi.beta.real, psi.beta.imag))
    lines = []
    for line in fig1_text().splitlines():
        if line.startswith("jones"):
            lines.append(f"jones 1 a b {literal}")
        else:
            lines.append(line)
    return "\n".join(lines) + "\n"


def test_module_docstring_lists_every_statement_form():
    for form in dsl.STATEMENT_FORMS.values():
        assert form in dsl.__doc__


# ---------------------------------------------------------------- tokenizer


def test_tokenize_records_columns_and_strips_comments():
    lines = tokenize("pair a a' b b'  # source")
    assert len(lines) == 1
    texts = [t.text for t in lines[0].tokens]
    cols = [t.col for t in lines[0].tokens]
    assert texts == ["pair", "a", "a'", "b", "b'"]
    assert cols == [1, 6, 8, 11, 13]


def test_tokenize_skips_blank_and_comment_lines_keeping_numbers():
    lines = tokenize("\n# only a comment\nmodes 1 a\n\nmodes 2 b\n")
    assert [line.number for line in lines] == [3, 5]


def test_tokenize_empty_text():
    assert tokenize("") == []


def test_diagnostic_render_format():
    diag = Diagnostic(4, 5, 6, "boom", expected="X", found="Y")
    assert diag.render() == "line 4, col 5: error: boom (expected X, found Y)"
    bare = Diagnostic(2, 1, 1, "quiet")
    assert bare.render() == "line 2, col 1: error: quiet"


# ---------------------------------------------------------------- parser happy path


def test_bundled_teleport_circuit_parses_clean():
    result = parse(fig1_text())
    assert result.ok
    assert result.diagnostics == ()
    kinds = [type(s).__name__ for s in result.program.statements]
    assert kinds[0] == "ModesStmt"
    assert "DetectStmt" in kinds


def test_bundled_entangler_circuit_parses_clean():
    result = parse(builtin_circuit("pol_entangled.opt"))
    assert result.ok


def test_empty_program_is_valid():
    result = parse("   \n# nothing here\n")
    assert result.ok
    assert result.program.statements == ()


def test_pretty_print_round_trip():
    for name in ("fig1.opt", "pol_entangled.opt"):
        program = parse(builtin_circuit(name)).program
        canonical = pretty_print(program)
        reparsed = parse(canonical)
        assert reparsed.ok
        assert reparsed.program.statements == program.statements
        assert pretty_print(reparsed.program) == canonical


def test_pretty_print_rejects_element_kind_without_statement_form():
    program = dsl.CircuitProgram((dsl.ElementStmt(ElementSpec("relabel", 1, ("a", "b"))),))
    with pytest.raises(SimulationError, match="'relabel' has no statement form"):
        pretty_print(program)


def test_pretty_print_keeps_renormalized_literal_stable():
    text = "modes 1 a b\nmodes 2 c d\npair a c b d\njones 1 a b 0.6 1e-9 0.8 0\n"
    program = parse(text).program
    canonical = pretty_print(program)
    assert parse(canonical).program.statements == program.statements


# ---------------------------------------------------------------- parser errors


def expect_errors(text: str, *fragments: tuple[int, str]) -> None:
    result = parse(text)
    assert not result.ok
    assert len(result.diagnostics) == len(fragments)
    for diag, (line, fragment) in zip(result.diagnostics, fragments):
        assert diag.line == line
        assert fragment in diag.message


def test_arity_errors_from_corpus_file():
    result = parse((DATA_DIR / "bad_arity.opt").read_text())
    assert not result.ok
    assert [d.line for d in result.diagnostics] == [5, 6]
    assert "pbs takes 4 arguments" in result.diagnostics[0].message
    assert "bs takes 5 arguments" in result.diagnostics[1].message


def test_norm_error_from_corpus_file():
    result = parse((DATA_DIR / "bad_norm.opt").read_text())
    assert not result.ok
    assert len(result.diagnostics) == 1
    diag = result.diagnostics[0]
    assert diag.line == 4
    assert diag.col == 13
    assert diag.expected == "normalized jones literal"


def test_semantic_errors_from_corpus_file():
    result = parse((DATA_DIR / "bad_semantics.opt").read_text())
    assert not result.ok
    assert [d.line for d in result.diagnostics] == [4, 5]
    assert "'c' is not declared" in result.diagnostics[0].message
    assert "duplicate detector label 'D1'" in result.diagnostics[1].message


def test_unknown_keyword_lists_statement_forms():
    result = parse("teleport 1 a\n")
    assert not result.ok
    diag = result.diagnostics[0]
    assert "unknown statement" in diag.message
    assert "pair" in diag.expected and "polarizer" in diag.expected


def test_bad_photon_number():
    expect_errors("modes 3 a b\n", (1, "photon must be 1 or 2"))


def test_non_finite_literal_rejected():
    expect_errors(
        "modes 1 a b\nmodes 2 c d\npair a c b d\nphase 1 a nan\n",
        (4, "finite"),
    )


def test_not_a_number_literal():
    expect_errors(
        "modes 1 a b\nmodes 2 c d\npair a c b d\nphase 1 a fast\n",
        (4, "not a number"),
    )


def test_detect_binding_shapes():
    prefix = "modes 1 a b\nmodes 2 c d\npair a c b d\n"
    for bad in ("detect 1 a", "detect 1 =D1", "detect 1 a=", "detect 1 a=D1=X"):
        result = parse(prefix + bad + "\n")
        assert not result.ok
        assert any("must be <mode>=<label>" in d.message for d in result.diagnostics)


def test_mode_with_equals_rejected_outside_detect():
    expect_errors("modes 1 a=b c\n", (1, "must not contain '='"))


def test_repeated_mode_in_one_statement():
    expect_errors("pair a a b c\n", (1, "repeated in one statement"))


def test_multiple_errors_on_one_line_sorted_by_column():
    result = parse("pbs 3 a a v\n")
    assert not result.ok
    assert [d.line for d in result.diagnostics] == [1, 1]
    assert result.diagnostics[0].col < result.diagnostics[1].col
    assert "photon" in result.diagnostics[0].message
    assert "repeated" in result.diagnostics[1].message


def test_semantics_skipped_while_syntax_errors_remain():
    # the undeclared mode on line 2 must stay quiet until line 1 parses
    result = parse("modes 9 a\npbs 1 ghost v h\n")
    assert [d.line for d in result.diagnostics] == [1]


def test_mode_redeclaration():
    expect_errors("modes 1 a\nmodes 1 a\n", (1, "no source"),
                  (2, "already declared"))


def test_element_before_source():
    expect_errors("modes 1 a b\nrot_to_h 1 a\n", (1, "no source"),
                  (2, "precedes the source"))


def test_program_without_source():
    expect_errors("modes 1 a b\n", (1, "no source"))


def test_double_source():
    expect_errors(
        "modes 1 a b\nmodes 2 c d\npair a c b d\npair b d a c\n",
        (4, "second source"),
    )


def test_second_detect_rejected():
    text = ("modes 1 a b\nmodes 2 c d\npair a c b d\n"
            "detect 1 a=DA b=DB\ndetect 2 c=DC d=DD\n")
    expect_errors(text, (5, "second detect"))


def test_detected_photon_locked_after_detect():
    text = ("modes 1 a b\nmodes 2 c d\npair a c b d\n"
            "detect 1 a=DA b=DB\nrot_h_to_v 1 a\n")
    expect_errors(text, (5, "consumed by detect at line 4"))


def test_polarizer_requires_detect():
    text = "modes 1 a b\nmodes 2 c d\npair a c b d\npolarizer 2 c 1 0 0 0\n"
    expect_errors(text, (4, "requires an earlier detect"))


def test_nothing_after_polarizer():
    text = ("modes 1 a b\nmodes 2 c d\npair a c b d\n"
            "detect 1 a=DA b=DB\npolarizer 2 c 1 0 0 0\nphase 2 d 0.1\n")
    expect_errors(text, (6, "follow the polarizer"))


def test_detect_duplicate_mode_binding():
    text = "modes 1 a b\nmodes 2 c d\npair a c b d\ndetect 1 a=DA a=DB b=DC\n"
    expect_errors(text, (4, "bound to two detectors"))


def test_detect_undeclared_mode():
    text = "modes 1 a b\nmodes 2 c d\npair a c b d\ndetect 1 ghost=DA a=DB b=DC\n"
    expect_errors(text, (4, "'ghost' is not declared"))


# ---------------------------------------------------------------- runtime


def test_teleport_circuit_matches_library_pipeline_exactly():
    rng = np.random.default_rng(61)
    for _ in range(50):
        psi = random_jones(rng)
        result = compile_and_run(parse(teleport_text(psi)).program)
        expected = alice_transform(preparer_encode(source_state(), psi))
        assert result.pre_detection_state is not None
        for ket, amp in expected.items():
            assert result.pre_detection_state.amplitude(ket) == amp
        assert len(result.pre_detection_state._amps) == len(expected._amps)


def test_teleport_circuit_click_probabilities_quarter():
    result = compile_and_run(parse(fig1_text()).program)
    for label in ("D1", "D2", "D3", "D4"):
        assert abs(result.table.probability(label) - 0.25) < 1e-12


def test_teleport_circuit_outcome_stream_matches_sampler():
    psi = JonesVector(0.6, 0.8)
    program = parse(teleport_text(psi)).program
    run = compile_and_run(program, trials=500, seed=42, eta=0.7)
    reference = run_trials(psi, 500, DetectorModel(0.7), 42, StationConfig())
    assert [r.outcome for r in run.records] == [r.outcome for r in reference]


def test_teleport_circuit_third_branch_carries_the_message():
    # the hard-wired correction pair suits exactly one click; the bundled
    # circuit is wired so that branch three exits as the message itself
    psi = JonesVector(0.6, 0.8)
    result = compile_and_run(parse(teleport_text(psi)).program)
    decoded = [c.to_jones("o") for c in result.final_conditionals]
    fidelities = [psi.fidelity(d) for d in decoded]
    assert fidelities[2] > 1 - 1e-12
    assert all(f < 1 - 1e-6 for i, f in enumerate(fidelities) if i != 2)


def test_polarizer_checks_the_corrected_branch():
    psi = JonesVector(0.6, 0.8)
    text = teleport_text(psi) + "polarizer 2 o 0.6 0 0.8 0\n"
    run = compile_and_run(parse(text).program, trials=400, seed=9)
    by_label = {"D1": set(), "D2": set(), "D3": set(), "D4": set()}
    for record in run.records:
        by_label[record.outcome].add(record.passed)
    assert by_label["D3"] == {True}
    assert by_label["D1"] == {False}
    assert by_label["D2"] == {True, False}
    assert by_label["D4"] == {True, False}


def test_records_empty_without_detect():
    text = "modes 1 a b\nmodes 2 c d\npair a c b d\n"
    run = compile_and_run(parse(text).program, trials=10, seed=0)
    assert run.records == ()
    assert run.table is None
    assert run.final_state is not None


def test_empty_program_runs_to_nothing():
    run = compile_and_run(parse("").program, trials=5, seed=0)
    assert run.final_state is None
    assert run.records == ()


def test_entangler_circuit_final_state():
    result = compile_and_run(parse(builtin_circuit("pol_entangled.opt")).program)
    state = result.final_state
    assert abs(state.squared_norm() - 1.0) < 1e-12
    kets = {ket for ket, _ in state.items()}
    assert len(kets) == 4
    # photon 1 sits in the d1/d2 pair, photon 2 merged onto o2 with both
    # polarizations in play: direction and polarization stay entangled
    assert {k.mode1 for k in kets} == {"d1", "d2"}
    assert {k.mode2 for k in kets} == {"o2"}
    assert {k.pol2 for k in kets} == {0, 1}


def test_runtime_guard_merge_reports_line():
    text = "modes 1 a b\nmodes 2 c d\npair a c b d\nmerge 1 a b o\n"
    with pytest.raises(CircuitRuntimeError) as info:
        compile_and_run(parse(text).program)
    assert info.value.line == 4
    assert "line 4" in str(info.value)


def test_runtime_guard_unbound_detector_mode():
    text = "modes 1 a b\nmodes 2 c d\npair a c b d\ndetect 1 a=DA\n"
    with pytest.raises(CircuitRuntimeError) as info:
        compile_and_run(parse(text).program)
    assert info.value.line == 4
    assert "no detector" in str(info.value)


def test_runtime_guard_polarizer_needs_single_mode():
    text = ("modes 1 a b\nmodes 2 c d\npair a c b d\n"
            "detect 1 a=DA b=DB\npolarizer 2 c 1 0 0 0\n")
    with pytest.raises(CircuitRuntimeError) as info:
        compile_and_run(parse(text).program)
    assert info.value.line == 5
