"""Line-oriented language for describing optical tables, plus its runtime.

One statement per line; `#` starts a comment; blank lines are ignored.
Statement forms (photon is 1 or 2; modes are bare names like a, b', 3):

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
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .elements import ElementSpec
from .errors import NormalizationError, SimulationError
from .protocol import BranchTable, branch_table
from .sampling import DetectorModel, EventRecord, pass_probability, sample_trials
from .states import JointState, JonesVector, ModeRegistry, PhotonState, make_pair_state

_TOKEN_RE = re.compile(r"\S+")

#: Statement shapes quoted in diagnostics.
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
        tokens = tuple(
            Token(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(code)
        )
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


class _LineParser:
    """Per-line recursive-descent over one token list."""

    def __init__(self, line: SourceLine, sink: list[Diagnostic]) -> None:
        self.line = line
        self.sink = sink
        self.failed = False

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

    def exact_arity(self, count: int) -> bool:
        keyword = self.line.tokens[0].text
        args = len(self.line.tokens) - 1
        if args != count:
            excess = self.line.tokens[count + 1] if args > count else None
            self.error(excess, f"{keyword} takes {count} arguments",
                       expected=STATEMENT_FORMS[keyword], found=f"{args} arguments")
            return False
        return True

    def min_arity(self, count: int) -> bool:
        keyword = self.line.tokens[0].text
        args = len(self.line.tokens) - 1
        if args < count:
            self.error(None, f"{keyword} takes at least {count} arguments",
                       expected=STATEMENT_FORMS[keyword], found=f"{args} arguments")
            return False
        return True

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

    def mode(self, token: Token) -> str:
        if "=" in token.text:
            self.error(token, "mode names must not contain '='",
                       found=repr(token.text))
            return token.text
        return token.text

    def distinct_modes(self, tokens: Sequence[Token]) -> None:
        seen: dict[str, Token] = {}
        for token in tokens:
            if token.text in seen:
                self.error(token, f"mode {token.text!r} repeated in one statement")
            seen.setdefault(token.text, token)

    def jones_literal(self, tokens: Sequence[Token]) -> JonesVector | None:
        values = [self.number(t) for t in tokens]
        if self.failed:
            return None
        try:
            return JonesVector.from_components(*values)
        except NormalizationError as exc:
            self.error(tokens[0], str(exc), expected="normalized jones literal")
            return None


def _parse_line(line: SourceLine, sink: list[Diagnostic]) -> Statement | None:
    p = _LineParser(line, sink)
    keyword = line.tokens[0].text
    args = line.tokens[1:]

    if keyword == "modes":
        if not p.min_arity(2):
            return None
        photon = p.photon(args[0])
        names = tuple(p.mode(t) for t in args[1:])
        p.distinct_modes(args[1:])
        return None if p.failed else ModesStmt(photon, names, line.number)

    if keyword == "pair":
        if not p.exact_arity(4):
            return None
        names = tuple(p.mode(t) for t in args)
        p.distinct_modes(args)
        return None if p.failed else PairStmt(*names, line=line.number)

    if keyword == "jones":
        if not p.min_arity(6):
            return None
        photon = p.photon(args[0])
        mode_tokens = args[1:-4]
        modes = tuple(p.mode(t) for t in mode_tokens)
        p.distinct_modes(mode_tokens)
        axis = p.jones_literal(args[-4:])
        if p.failed or axis is None:
            return None
        return ElementStmt(ElementSpec("jones", photon, (axis, modes)), line.number)

    if keyword in ("pbs", "bs", "merge"):
        arity = {"pbs": 4, "bs": 5, "merge": 4}[keyword]
        if not p.exact_arity(arity):
            return None
        photon = p.photon(args[0])
        modes = tuple(p.mode(t) for t in args[1:])
        p.distinct_modes(args[1:])
        return None if p.failed else ElementStmt(
            ElementSpec(keyword, photon, modes), line.number
        )

    if keyword in ("rot_to_h", "rot_h_to_v", "c1", "c2"):
        if not p.exact_arity(2):
            return None
        photon = p.photon(args[0])
        mode = p.mode(args[1])
        return None if p.failed else ElementStmt(
            ElementSpec(keyword, photon, (mode,)), line.number
        )

    if keyword == "phase":
        if not p.exact_arity(3):
            return None
        photon = p.photon(args[0])
        mode = p.mode(args[1])
        radians = p.number(args[2])
        return None if p.failed else ElementStmt(
            ElementSpec("phase", photon, (mode, radians)), line.number
        )

    if keyword == "detect":
        if not p.min_arity(2):
            return None
        photon = p.photon(args[0])
        bindings = []
        for token in args[1:]:
            mode, eq, label = token.text.partition("=")
            if not eq or not mode or not label or "=" in label:
                p.error(token, "detector binding must be <mode>=<label>",
                        expected="<mode>=<label>", found=repr(token.text))
                continue
            bindings.append((mode, label))
        if p.failed:
            return None
        return DetectStmt(photon, tuple(bindings), line.number)

    if keyword == "polarizer":
        if not p.exact_arity(6):
            return None
        photon = p.photon(args[0])
        mode = p.mode(args[1])
        axis = p.jones_literal(args[2:])
        if p.failed or axis is None:
            return None
        return PolarizerStmt(photon, mode, axis, line.number)

    p.error(line.tokens[0], f"unknown statement {keyword!r}",
            expected="one of " + ", ".join(sorted(STATEMENT_FORMS)))
    return None


def _spec_modes(spec: ElementSpec) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(input modes, fresh output modes) a statement touches."""
    if spec.kind == "jones":
        return tuple(spec.args[1]), ()
    if spec.kind == "pbs":
        return (spec.args[0],), (spec.args[1], spec.args[2])
    if spec.kind == "bs":
        return (spec.args[0], spec.args[1]), (spec.args[2], spec.args[3])
    if spec.kind == "merge":
        return (spec.args[0], spec.args[1]), (spec.args[2],)
    # rot_to_h, rot_h_to_v, phase, c1, c2 act in place
    return (spec.args[0],), ()


def _check_semantics(statements: Sequence[Statement],
                     sink: list[Diagnostic]) -> None:
    declared: dict[int, set[str]] = {1: set(), 2: set()}
    labels: set[str] = set()
    source_line = 0
    detect_stmt: DetectStmt | None = None
    polarizer_seen = False

    def err(line: int, message: str, expected: str | None = None) -> None:
        sink.append(Diagnostic(line, 1, 1, message, expected=expected))

    def require_declared(line: int, photon: int, modes: Iterable[str]) -> None:
        for mode in modes:
            if mode not in declared[photon]:
                err(line, f"mode {mode!r} is not declared for photon {photon}")

    def require_fresh(line: int, photon: int, modes: Iterable[str]) -> None:
        for mode in modes:
            if mode in declared[photon]:
                err(line, f"mode {mode!r} already declared for photon {photon}")
            declared[photon].add(mode)

    for stmt in statements:
        if polarizer_seen:
            err(stmt.line, "no statement may follow the polarizer")
            continue
        consumed = detect_stmt is not None
        if isinstance(stmt, ModesStmt):
            if consumed and stmt.photon == detect_stmt.photon:
                err(stmt.line,
                    f"photon {stmt.photon} was consumed by detect at line "
                    f"{detect_stmt.line}")
                continue
            require_fresh(stmt.line, stmt.photon, stmt.names)
        elif isinstance(stmt, PairStmt):
            if source_line:
                err(stmt.line, f"second source; pair already given at line {source_line}")
                continue
            source_line = stmt.line
            require_declared(stmt.line, 1, (stmt.a1, stmt.b1))
            require_declared(stmt.line, 2, (stmt.a2, stmt.b2))
        elif isinstance(stmt, ElementStmt):
            photon = stmt.spec.photon
            if not source_line:
                err(stmt.line, "element precedes the source; add a pair statement first")
                continue
            if consumed and photon == detect_stmt.photon:
                err(stmt.line,
                    f"photon {photon} was consumed by detect at line {detect_stmt.line}")
                continue
            inputs, outputs = _spec_modes(stmt.spec)
            require_declared(stmt.line, photon, inputs)
            require_fresh(stmt.line, photon, outputs)
        elif isinstance(stmt, DetectStmt):
            if not source_line:
                err(stmt.line, "detect precedes the source")
                continue
            if consumed:
                err(stmt.line,
                    f"second detect; photons already detected at line {detect_stmt.line}")
                continue
            for mode, label in stmt.bindings:
                if mode not in declared[stmt.photon]:
                    err(stmt.line,
                        f"mode {mode!r} is not declared for photon {stmt.photon}")
                if label in labels:
                    err(stmt.line, f"duplicate detector label {label!r}")
                labels.add(label)
            modes = [m for m, _ in stmt.bindings]
            for mode in set(m for m in modes if modes.count(m) > 1):
                err(stmt.line, f"mode {mode!r} bound to two detectors")
            detect_stmt = stmt
        elif isinstance(stmt, PolarizerStmt):
            if detect_stmt is None:
                err(stmt.line, "polarizer requires an earlier detect")
                continue
            if stmt.photon == detect_stmt.photon:
                err(stmt.line,
                    f"photon {stmt.photon} was consumed by detect at line "
                    f"{detect_stmt.line}")
                continue
            if stmt.mode not in declared[stmt.photon]:
                err(stmt.line,
                    f"mode {stmt.mode!r} is not declared for photon {stmt.photon}")
            polarizer_seen = True

    if statements and not source_line:
        err(statements[0].line, "program has no source; add a pair statement")


def parse(text: str) -> ParseResult:
    """Parse and validate; returns a program only with zero diagnostics."""
    diagnostics: list[Diagnostic] = []
    statements: list[Statement] = []
    for line in tokenize(text):
        stmt = _parse_line(line, diagnostics)
        if stmt is not None:
            statements.append(stmt)
    if not diagnostics:
        _check_semantics(statements, diagnostics)
    diagnostics.sort(key=lambda d: (d.line, d.col))
    if diagnostics:
        return ParseResult(None, tuple(diagnostics))
    return ParseResult(CircuitProgram(tuple(statements)), ())


def _fmt(value: float) -> str:
    return repr(float(value))


def pretty_print(program: CircuitProgram) -> str:
    """Canonical text form; reparsing it reproduces the program."""
    out = []
    for stmt in program.statements:
        if isinstance(stmt, ModesStmt):
            out.append(f"modes {stmt.photon} " + " ".join(stmt.names))
        elif isinstance(stmt, PairStmt):
            out.append(f"pair {stmt.a1} {stmt.a2} {stmt.b1} {stmt.b2}")
        elif isinstance(stmt, ElementStmt):
            spec = stmt.spec
            if spec.kind == "jones":
                axis, modes = spec.args
                parts = [_fmt(axis.alpha.real), _fmt(axis.alpha.imag),
                         _fmt(axis.beta.real), _fmt(axis.beta.imag)]
                out.append(f"jones {spec.photon} " + " ".join(modes)
                           + " " + " ".join(parts))
            elif spec.kind == "phase":
                out.append(f"phase {spec.photon} {spec.args[0]} {_fmt(spec.args[1])}")
            else:
                out.append(f"{spec.kind} {spec.photon} " + " ".join(spec.args))
        elif isinstance(stmt, DetectStmt):
            pairs = " ".join(f"{m}={l}" for m, l in stmt.bindings)
            out.append(f"detect {stmt.photon} {pairs}")
        elif isinstance(stmt, PolarizerStmt):
            parts = [_fmt(stmt.axis.alpha.real), _fmt(stmt.axis.alpha.imag),
                     _fmt(stmt.axis.beta.real), _fmt(stmt.axis.beta.imag)]
            out.append(f"polarizer {stmt.photon} {stmt.mode} " + " ".join(parts))
    return "\n".join(out) + ("\n" if out else "")


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
    through the trial loop and draw order of `teleoptics.sampling`."""
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
        probabilities = table.probabilities
        for trial, _, index, passed in sample_trials(
                seed, trials, DetectorModel(eta), lambda rng: (None, probabilities),
                lambda context, index: passes[index]):
            outcome = None if index is None else labels[index]
            records.append(EventRecord(trial, None, outcome, None, None, passed))
    return RunResult(None, pre_detection, table, tuple(conditionals), tuple(records))
