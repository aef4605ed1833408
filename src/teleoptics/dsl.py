"""Line-oriented language for describing optical tables, plus its runtime.

One statement per line; `#` starts a comment; blank lines are ignored.
The forms below are `STATEMENT_FORMS`, the grammar the parser runs; the
mode checks and `pretty_print` walk the same fields. The placeholder count
is the arity, and a trailing `...` makes it a minimum. `<photon>` is 1 or
2, `<radians>` a number, `<ar> <ai> <br> <bi>` a Jones literal and
`<mode>=<label>` a detector binding. Every other placeholder is a mode, a
bare name like a, b' or 3; one whose name starts with `out` is a fresh
output, and the rest must already be declared:

    modes <photon> <mode>...
    pair <a1> <a2> <b1> <b2>
    jones <photon> <mode>... <ar> <ai> <br> <bi>
    pbs <photon> <input> <outV> <outH>
    rot_to_h <photon> <mode>
    rot_h_to_v <photon> <mode>
    bs <photon> <in1> <in2> <out1> <out2>
    phase <photon> <mode> <radians>
    c1 <photon> <mode>
    c2 <photon> <mode>
    merge <photon> <inV> <inH> <out>
    detect <photon> <mode>=<label>...
    polarizer <photon> <mode> <ar> <ai> <br> <bi>

`pair` is the only source: photon 1 across beams a1/b1, photon 2 across
a2/b2, amplitudes locked in step. A program holds at most one `detect`;
after it, only the surviving photon may be addressed. A single `polarizer`
may close the program, checking the surviving photon's polarization on one
mode. Jones and polarizer literals are four reals (re/im pairs) and must be
normalized within 1e-6.

Parsing collects diagnostics instead of stopping at the first problem;
a program is produced only when there are none.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from itertools import count
from typing import Sequence

from .elements import ElementSpec
from .errors import NormalizationError, SimulationError
from .protocol import BranchTable, branch_table
from .sampling import DetectorModel, EventRecord, _passed, _trial_columns, pass_probability
from .states import JointState, JonesVector, ModeRegistry, PhotonState, make_pair_state

_TOKEN_RE = re.compile(r"\S+")

#: The grammar: one form per keyword, compiled into `_GRAMMAR` below and
#: quoted in diagnostics.
STATEMENT_FORMS = {
    "modes": "modes <photon> <mode>...",
    "pair": "pair <a1> <a2> <b1> <b2>",
    "jones": "jones <photon> <mode>... <ar> <ai> <br> <bi>",
    "pbs": "pbs <photon> <input> <outV> <outH>",
    "rot_to_h": "rot_to_h <photon> <mode>",
    "rot_h_to_v": "rot_h_to_v <photon> <mode>",
    "bs": "bs <photon> <in1> <in2> <out1> <out2>",
    "phase": "phase <photon> <mode> <radians>",
    "c1": "c1 <photon> <mode>",
    "c2": "c2 <photon> <mode>",
    "merge": "merge <photon> <inV> <inH> <out>",
    "detect": "detect <photon> <mode>=<label>...",
    "polarizer": "polarizer <photon> <mode> <ar> <ai> <br> <bi>",
}


@dataclass(frozen=True)
class Token:
    text: str
    col: int  # 1-based start column in the raw line


@dataclass(frozen=True)
class SourceLine:
    number: int  # 1-based line number in the original text
    raw: str
    tokens: tuple[Token, ...]


def tokenize(text: str) -> list[SourceLine]:
    """Split into non-empty token lines; comments and blanks vanish here."""
    lines = []
    for number, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        tokens = tuple([Token(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(code)])
        if tokens:
            lines.append(SourceLine(number, raw, tokens))
    return lines


@dataclass(frozen=True)
class Diagnostic:
    """One parse or semantic problem, anchored to a source position."""

    line: int
    col: int
    end_col: int
    message: str
    severity: str = "error"
    expected: str | None = None
    found: str | None = None

    def render(self) -> str:
        text = f"line {self.line}, col {self.col}: {self.severity}: {self.message}"
        hints = []
        if self.expected is not None:
            hints.append(f"expected {self.expected}")
        if self.found is not None:
            hints.append(f"found {self.found}")
        if hints:
            text += f" ({', '.join(hints)})"
        return text


@dataclass(frozen=True)
class ModesStmt:
    photon: int
    names: tuple[str, ...]
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class PairStmt:
    a1: str
    a2: str
    b1: str
    b2: str
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class ElementStmt:
    spec: ElementSpec
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class DetectStmt:
    photon: int
    bindings: tuple[tuple[str, str], ...]  # (mode, label) in statement order
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class PolarizerStmt:
    photon: int
    mode: str
    axis: JonesVector
    line: int = field(compare=False, default=0)


Statement = ModesStmt | PairStmt | ElementStmt | DetectStmt | PolarizerStmt


@dataclass(frozen=True)
class CircuitProgram:
    statements: tuple[Statement, ...]


@dataclass(frozen=True)
class ParseResult:
    program: CircuitProgram | None
    diagnostics: tuple[Diagnostic, ...]

    @property
    def ok(self) -> bool:
        return self.program is not None


#: Statements other than elements, by keyword; each takes its fields in
#: text order. Every other keyword is an element kind.
_STATEMENTS = {"modes": ModesStmt, "pair": PairStmt, "detect": DetectStmt,
               "polarizer": PolarizerStmt}
_KEYWORDS = {cls: keyword for keyword, cls in _STATEMENTS.items()}


class _LineParser:
    """Field parsers for one line; they record diagnostics and keep going."""

    __slots__ = ("line", "sink", "failed", "modes")

    def __init__(self, line: SourceLine, sink: list[Diagnostic]) -> None:
        self.line = line
        self.sink = sink
        self.failed = False
        self.modes: dict[str, bool] = {}  # mode -> whether it is a fresh output

    def error(self, token: Token | None, message: str,
              expected: str | None = None, found: str | None = None) -> None:
        self.failed = True
        if token is None:
            last = self.line.tokens[-1]
            col = last.col + len(last.text)
            end = col
        else:
            col = token.col
            end = token.col + len(token.text)
        self.sink.append(Diagnostic(self.line.number, col, end, message,
                                    expected=expected, found=found))

    def photon(self, token: Token) -> int:
        if token.text in ("1", "2"):
            return int(token.text)
        self.error(token, "photon must be 1 or 2", expected="1 or 2",
                   found=repr(token.text))
        return 0

    def number(self, token: Token) -> float:
        try:
            value = float(token.text)
        except ValueError:
            self.error(token, "not a number", expected="numeric literal",
                       found=repr(token.text))
            return 0.0
        if not math.isfinite(value):
            self.error(token, "numeric literal must be finite",
                       found=repr(token.text))
            return 0.0
        return value

    def mode(self, token: Token, fresh: bool = False) -> str:
        if "=" in token.text:
            self.error(token, "mode names must not contain '='",
                       found=repr(token.text))
        if token.text in self.modes:
            self.error(token, f"mode {token.text!r} repeated in one statement")
        self.modes[token.text] = fresh
        return token.text

    def out(self, token: Token) -> str:
        return self.mode(token, fresh=True)

    def binding(self, token: Token) -> tuple[str, str]:
        mode, eq, label = token.text.partition("=")
        if not eq or not mode or not label or "=" in label:
            self.error(token, "detector binding must be <mode>=<label>",
                       expected="<mode>=<label>", found=repr(token.text))
        return mode, label

    def literal(self, tokens: Sequence[Token]) -> JonesVector | None:
        """Four reals; the norm is checked only on an otherwise clean line."""
        values = [self.number(t) for t in tokens]
        if self.failed:
            return None
        try:
            return JonesVector.from_components(*values)
        except NormalizationError as exc:
            self.error(tokens[0], str(exc), expected="normalized jones literal")
            return None


#: Placeholders that name a field kind. Every other placeholder is a mode,
#: and a fresh output mode when its name starts with "out".
_FIELD_KINDS = {"<photon>": "photon", "<radians>": "number", "<ar>": "literal",
                "<mode>=<label>...": "binding"}
_LITERAL_REST = ("<ai>", "<br>", "<bi>")


def _compile_form(form: str) -> tuple[int, bool, tuple]:
    """(arity, whether `...` makes it a minimum, and per field its kind,
    whether it repeats and its `_LineParser` method)."""
    placeholders = form.split()[1:]
    fields = []
    for p in placeholders:
        if p not in _LITERAL_REST:
            kind = _FIELD_KINDS.get(p, "out" if p.startswith("<out") else "mode")
            fields.append((kind, p.endswith("..."), getattr(_LineParser, kind)))
    return len(placeholders), "..." in form, tuple(fields)


_GRAMMAR = {keyword: _compile_form(form) for keyword, form in STATEMENT_FORMS.items()}


def _parse_line(line: SourceLine,
                sink: list[Diagnostic]) -> tuple[Statement, dict[str, bool]] | None:
    """The line's statement and its modes (mode -> fresh output?), or None."""
    p = _LineParser(line, sink)
    tokens = line.tokens
    keyword = tokens[0].text
    grammar = _GRAMMAR.get(keyword)
    if grammar is None:
        p.error(tokens[0], f"unknown statement {keyword!r}",
                expected="one of " + ", ".join(sorted(STATEMENT_FORMS)))
        return None
    arity, variadic, form_fields = grammar
    extra = len(tokens) - 1 - arity
    if extra < 0 or (extra and not variadic):
        least = "at least " if variadic else ""
        p.error(tokens[arity + 1] if extra > 0 else None,
                f"{keyword} takes {least}{arity} arguments",
                expected=STATEMENT_FORMS[keyword], found=f"{arity + extra} arguments")
        return None
    values = []
    at = 1
    for kind, repeated, parse_field in form_fields:
        if repeated:
            values.append(tuple([parse_field(p, t) for t in tokens[at:at + 1 + extra]]))
            at += 1 + extra
        elif kind == "literal":
            values.append(parse_field(p, tokens[at:at + 4]))
            at += 4
        else:
            values.append(parse_field(p, tokens[at]))
            at += 1
    if p.failed:
        return None
    statement = _STATEMENTS.get(keyword)
    if statement is not None:
        return statement(*values, line=line.number), p.modes
    spec = ElementSpec(keyword, values[0], tuple(values[1:]))
    return ElementStmt(spec, line.number), p.modes


def _check_semantics(statements: Sequence[tuple[Statement, dict[str, bool]]],
                     sink: list[Diagnostic]) -> None:
    declared: dict[int, set[str]] = {1: set(), 2: set()}
    labels: set[str] = set()
    source_line = 0
    detect_stmt: DetectStmt | None = None
    polarizer_seen = False

    def err(line: int, message: str, expected: str | None = None) -> None:
        sink.append(Diagnostic(line, 1, 1, message, expected=expected))

    def require(line: int, photon: int, modes: dict[str, bool]) -> None:
        """Inputs (False) must be declared; fresh outputs (True) must not be,
        and are declared from here on."""
        known = declared[photon]
        for mode, fresh in modes.items():
            if not fresh:
                if mode not in known:
                    err(line, f"mode {mode!r} is not declared for photon {photon}")
            elif mode in known:
                err(line, f"mode {mode!r} already declared for photon {photon}")
            else:
                known.add(mode)

    def consumed(line: int, photon: int) -> bool:
        if detect_stmt is None or photon != detect_stmt.photon:
            return False
        err(line, f"photon {photon} was consumed by detect at line {detect_stmt.line}")
        return True

    for stmt, modes in statements:
        if polarizer_seen:
            err(stmt.line, "no statement may follow the polarizer")
        elif isinstance(stmt, ModesStmt):
            if not consumed(stmt.line, stmt.photon):
                require(stmt.line, stmt.photon, dict.fromkeys(stmt.names, True))
        elif isinstance(stmt, PairStmt):
            if source_line:
                err(stmt.line, f"second source; pair already given at line {source_line}")
                continue
            source_line = stmt.line
            require(stmt.line, 1, dict.fromkeys((stmt.a1, stmt.b1), False))
            require(stmt.line, 2, dict.fromkeys((stmt.a2, stmt.b2), False))
        elif isinstance(stmt, ElementStmt):
            photon = stmt.spec.photon
            if not source_line:
                err(stmt.line, "element precedes the source; add a pair statement first")
            elif not consumed(stmt.line, photon):
                require(stmt.line, photon, modes)
        elif isinstance(stmt, DetectStmt):
            if not source_line:
                err(stmt.line, "detect precedes the source")
                continue
            if detect_stmt is not None:
                err(stmt.line,
                    f"second detect; photons already detected at line {detect_stmt.line}")
                continue
            for mode, label in stmt.bindings:
                require(stmt.line, stmt.photon, {mode: False})
                if label in labels:
                    err(stmt.line, f"duplicate detector label {label!r}")
                labels.add(label)
            bound = [m for m, _ in stmt.bindings]
            for mode in set(m for m in bound if bound.count(m) > 1):
                err(stmt.line, f"mode {mode!r} bound to two detectors")
            detect_stmt = stmt
        elif isinstance(stmt, PolarizerStmt):
            if detect_stmt is None:
                err(stmt.line, "polarizer requires an earlier detect")
            elif not consumed(stmt.line, stmt.photon):
                require(stmt.line, stmt.photon, modes)
                polarizer_seen = True

    if statements and not source_line:
        err(statements[0][0].line, "program has no source; add a pair statement")


def parse(text: str) -> ParseResult:
    """Parse and validate; returns a program only with zero diagnostics."""
    diagnostics: list[Diagnostic] = []
    statements = []
    for line in tokenize(text):
        parsed = _parse_line(line, diagnostics)
        if parsed is not None:
            statements.append(parsed)
    if not diagnostics:
        _check_semantics(statements, diagnostics)
    diagnostics.sort(key=lambda d: (d.line, d.col))
    if diagnostics:
        return ParseResult(None, tuple(diagnostics))
    return ParseResult(CircuitProgram(tuple([stmt for stmt, _ in statements])), ())


def _fmt(value: float) -> str:
    return repr(float(value))


_FORMAT = {
    "photon": str, "mode": str, "out": str, "number": _fmt, "binding": "=".join,
    "literal": lambda axis: " ".join(_fmt(x) for x in (axis.alpha.real, axis.alpha.imag,
                                                       axis.beta.real, axis.beta.imag)),
}


def pretty_print(program: CircuitProgram) -> str:
    """Canonical text form; reparsing it reproduces the program."""
    out = []
    for stmt in program.statements:
        if isinstance(stmt, ElementStmt):
            keyword, values = stmt.spec.kind, (stmt.spec.photon, *stmt.spec.args)
            if keyword not in _GRAMMAR:
                raise SimulationError(
                    f"element kind {keyword!r} has no statement form to print")
        else:
            keyword = _KEYWORDS[type(stmt)]
            values = [getattr(stmt, f.name) for f in fields(stmt) if f.name != "line"]
        words = [keyword]
        for (kind, repeated, _), value in zip(_GRAMMAR[keyword][2], values):
            words += map(_FORMAT[kind], value if repeated else (value,))
        out.append(" ".join(words) + "\n")
    return "".join(out)


class CircuitRuntimeError(SimulationError):
    """Execution failure tagged with the offending statement's line."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class RunResult:
    """What a program produced.

    Programs without detect yield only `final_state`. With detect,
    `pre_detection_state` and `table` freeze the moment of measurement and
    `final_conditionals` carry each branch through any later elements.
    """

    final_state: JointState | None
    pre_detection_state: JointState | None
    table: BranchTable | None
    final_conditionals: tuple[PhotonState | None, ...] | None
    records: tuple[EventRecord, ...]


def compile_and_run(program: CircuitProgram, trials: int = 0, seed: int = 0,
                    eta: float = 1.0) -> RunResult:
    """Execute a validated program; with `trials`, sample detection events
    through the trial kernel and draw order of `teleoptics.sampling`."""
    registry = ModeRegistry()
    state: JointState | None = None
    table = None
    pre_detection = None
    detect_stmt: DetectStmt | None = None
    conditionals: list[PhotonState | None] = []
    polarizer: PolarizerStmt | None = None

    def guard(line: int, action):
        try:
            return action()
        except SimulationError as exc:
            raise CircuitRuntimeError(line, str(exc)) from exc

    for stmt in program.statements:
        if isinstance(stmt, ModesStmt):
            if state is not None:
                state = state.with_modes(stmt.photon, stmt.names)
                registry = state.registry
            else:
                registry = registry.with_modes(stmt.photon, stmt.names)
        elif isinstance(stmt, PairStmt):
            state = guard(stmt.line, lambda: make_pair_state(
                stmt.a1, stmt.b1, stmt.a2, stmt.b2, registry=registry))
            registry = state.registry
        elif isinstance(stmt, ElementStmt):
            element = guard(stmt.line, stmt.spec.build)
            if detect_stmt is None:
                if state is None:
                    raise CircuitRuntimeError(stmt.line, "no state to act on")
                state = guard(stmt.line, lambda: state.apply_one_photon_map(
                    stmt.spec.photon, element))
                registry = state.registry
            else:
                conditionals = [
                    guard(stmt.line, lambda c=c: c.apply_map(element))
                    if c is not None else None
                    for c in conditionals
                ]
        elif isinstance(stmt, DetectStmt):
            if state is None:
                raise CircuitRuntimeError(stmt.line, "no state to detect")
            pre_detection = state
            table = guard(stmt.line, lambda: branch_table(
                state, stmt.photon, dict(stmt.bindings)))
            conditionals = list(table.conditionals)
            detect_stmt = stmt
        elif isinstance(stmt, PolarizerStmt):
            polarizer = stmt

    if detect_stmt is None:
        return RunResult(state, None, None, None, ())

    passes: list[float | None] = [None] * len(conditionals)
    if polarizer is not None:
        axis = polarizer.axis.as_array()
        for index, conditional in enumerate(conditionals):
            if conditional is not None:
                state = guard(polarizer.line,
                              lambda c=conditional: c.to_jones(polarizer.mode))
                passes[index] = pass_probability(state.as_array(), axis)

    records: list[EventRecord] = []
    if trials:
        labels = [label for _, label in detect_stmt.bindings]
        for start, _, index, check in _trial_columns(seed, trials, DetectorModel(eta),
                                                     table.probabilities):
            for trial, i, u in zip(count(start), index.tolist(), check.tolist()):
                if i < 0:
                    records.append(EventRecord(trial, None, None, None, None, None))
                else:
                    records.append(EventRecord(trial, None, labels[i], None, None,
                                               _passed(u, passes[i])))
    return RunResult(None, pre_detection, table, tuple(conditionals), tuple(records))
