"""The benchmark's three workloads: inputs made from the seed, the timed
operations, the traced replays and the correctness checks.

Every workload alternates a sampling batch with an exact batch. The exact
phase is the same in all three: one message through `teleport_exact`, plus
the fig1 circuit carrying that message's `jones` literal through
`dsl.parse` and `dsl.compile_and_run` with 0 trials. The workloads differ
in how much work their inputs share:

* fixed-message: one message for every trial and every exact message. The
  sampling batch is five CLI commands run in-process through `cli.main`,
  and their output files are checked against recorded digests.
* haar-messages: a fresh Haar-random message per exact message and per
  trial (`run_trials(None, ...)` with the parallel verifier), so nothing
  is shared.
* bell-sweep: the default CHSH scan over the default efficiency grid,
  whose rows reuse one seed's streams over four shared 8-cell pmfs, plus
  the exact correlators and the grid search. Its exact messages are the
  scan config's two encodings.

The traced replays call finer public functions than the timed operations
(the library calls `cli.main` makes, the pipeline stages `teleport_exact`
walks), and their results are checked against the coarse calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

import teleoptics
from teleoptics import (
    AliceStrategy,
    DetectorModel,
    OUTCOMES,
    StationConfig,
    alice_analyzer,
    apply_correction,
    bob_decoder,
    branch_table,
    build_report,
    chsh_scan,
    compile_and_run,
    correction_plan,
    default_scan_config,
    efficiency_report,
    exact_correlator,
    grid_search_chsh,
    joint_distribution,
    jones_rotation,
    parse,
    run_trials,
    source_state,
    teleport_exact,
    write_events,
)
from teleoptics import cli
from teleoptics.protocol import MERGED_MODE, CorrectionPlan
from teleoptics.states import JonesVector

FIG1 = Path(teleoptics.__file__).parent / "circuits" / "fig1.opt"
JONES_PREFIX = "jones 1 a b "

#: Trials per CLI command in one fixed-message batch (5 commands).
CLI_TRIALS = 2000
#: A haar-messages batch is HAAR_CALLS calls of HAAR_TRIALS Haar-random
#: trials at efficiency HAAR_ETA.
HAAR_CALLS = 6
HAAR_TRIALS = 50
HAAR_ETA = 0.9
#: Trials per efficiency row in one bell-sweep batch.
BELL_TRIALS = 2000
BELL_ETAS = (1.0, 0.9, 0.75, 0.5, 0.25)


@dataclass(frozen=True)
class Reference:
    """Exact values the checks hold the program to."""

    branch_probability: float = 0.25
    fidelity: float = 1.0
    chsh_s: float = 2.0 * math.sqrt(2.0)
    tol: float = 1e-12


class Tally:
    """Attempted and failed operations, with the first problem of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter[str] = Counter()

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons[problems[0]] += 1


def _off(value, expected, tol: float) -> bool:
    """True when `value` misses `expected` by more than `tol`, or is NaN."""
    return not abs(value - expected) <= tol


def _raised(exc: Exception) -> list[str]:
    return [f"raised {type(exc).__name__}: {exc}"]


def call_or_exception(call):
    """call(), or the exception it raised: a failed operation is counted,
    and the loop around it goes on."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - recorded by the checks
        return exc


# --------------------------------------------------------------- exact phase

@dataclass(frozen=True)
class Message:
    """One exact-phase input: the message and its circuit text."""

    psi: JonesVector
    text: str


def circuit_template() -> list[str]:
    """fig1.opt split into lines; the `jones` line is replaced per message."""
    return FIG1.read_text(encoding="utf-8").splitlines()


def make_message(template: list[str], components) -> Message:
    literal = " ".join(repr(float(c)) for c in components)
    lines = [JONES_PREFIX + literal if line.startswith(JONES_PREFIX) else line
             for line in template]
    return Message(JonesVector.from_components(*components), "\n".join(lines) + "\n")


#: fig1 fires both correction cells on every branch, the sign flip first.
#: Firing the exchange, then the sign flip, undoes them.
_UNDO_FIG1_CELLS = (CorrectionPlan(fire_c1=False, fire_c2=True),
                    CorrectionPlan(fire_c1=True, fire_c2=False))


def circuit_fidelity(conditional, outcome, psi: JonesVector) -> float:
    """Fidelity with `psi` of a fig1 branch's final conditional, corrected
    as `teleport_exact` corrects `outcome`; NaN when it cannot be read."""
    try:
        jones = conditional.to_jones(MERGED_MODE)
        for plan in _UNDO_FIG1_CELLS:
            jones = apply_correction(jones, plan)
        return apply_correction(jones, correction_plan(outcome)).fidelity(psi)
    except Exception:  # noqa: BLE001 - a missing or malformed branch fails the check
        return math.nan


def check_exact(message: Message, branches, circuit_run, ref: Reference) -> list[str]:
    """Each branch of `teleport_exact` has the reference probability and
    fidelity with the message. The circuit's branches have the same
    probabilities and, once corrected, carry the message too."""
    problems = []
    table = circuit_run.table
    circuit = dict(zip(table.labels, zip(table.probabilities,
                                         circuit_run.final_conditionals)))
    for outcome in OUTCOMES:
        branch = branches[outcome]
        if _off(branch.probability, ref.branch_probability, ref.tol):
            problems.append(f"teleport_exact {outcome} probability off the reference")
        if _off(branch.fidelity, ref.fidelity, ref.tol):
            problems.append(f"teleport_exact {outcome} fidelity off the reference")
        probability, conditional = circuit.get(outcome.value, (math.nan, None))
        if _off(probability, branch.probability, ref.tol):
            problems.append(f"circuit {outcome} probability differs from teleport_exact")
        if _off(circuit_fidelity(conditional, outcome, message.psi), ref.fidelity, ref.tol):
            problems.append(f"circuit {outcome} final state is not the message")
    return problems


def exact_call(message: Message):
    """The exact phase for one message: `teleport_exact`, then the
    message's circuit parsed and run with 0 trials."""
    branches = teleport_exact(message.psi)
    return branches, compile_and_run(parse(message.text).program, trials=0)


def check_exact_call(message: Message, result, tally: Tally, ref: Reference) -> None:
    if isinstance(result, Exception):
        tally.record(_raised(result))
    else:
        tally.record(check_exact(message, *result, ref))


@dataclass(frozen=True)
class Walk:
    """The exact phase taken stage by stage, for the traced run."""

    probabilities: dict
    finals: dict
    circuit_run: object
    kets_in: int


def walk_message(message: Message, tracer) -> Walk:
    """`teleport_exact` through its public stages, each in its own span,
    then the message's circuit."""
    kets_in = 0

    def apply(state, element):
        nonlocal kets_in
        kets_in += len(state)
        with tracer.span("states.apply_one_photon_map"):
            return state.apply_one_photon_map(1, element)

    with tracer.span("protocol.teleport_exact"):
        with tracer.span("protocol.source_state"):
            state = source_state()
        with tracer.span("protocol.preparer_encode"):
            with tracer.span("elements.build"):
                rotation = jones_rotation(message.psi, tuple(sorted(state.registry.photon1)))
            state = apply(state, rotation)
        with tracer.span("protocol.alice_transform"):
            with tracer.span("elements.build"):
                analyzer = alice_analyzer()
            for element in analyzer:
                state = apply(state, element)
        with tracer.span("protocol.branch_table"):
            table = branch_table(state, photon=1)
        probabilities, finals = {}, {}
        for outcome in OUTCOMES:
            probabilities[outcome] = table.probability(outcome.value)
            conditional = table.conditional(outcome.value)
            with tracer.span("protocol.bob_decode"):
                with tracer.span("elements.build"):
                    decoder = bob_decoder()
                for element in decoder:
                    with tracer.span("states.apply_map"):
                        conditional = conditional.apply_map(element)
                jones = conditional.to_jones(MERGED_MODE)
            with tracer.span("protocol.apply_correction"):
                finals[outcome] = apply_correction(jones, correction_plan(outcome))
    with tracer.span("dsl.parse"):
        program = parse(message.text).program
    with tracer.span("dsl.compile_and_run"):
        run = compile_and_run(program, trials=0)
    return Walk(probabilities, finals, run, kets_in)


def check_walk(message: Message, walk: Walk, ref: Reference) -> list[str]:
    """The stage walk matches `teleport_exact` within the tolerance."""
    branches = teleport_exact(message.psi)
    problems = check_exact(message, branches, walk.circuit_run, ref)
    for outcome in OUTCOMES:
        branch, final = branches[outcome], walk.finals[outcome]
        if (_off(walk.probabilities[outcome], branch.probability, ref.tol)
                or _off(final.alpha, branch.final.alpha, ref.tol)
                or _off(final.beta, branch.final.beta, ref.tol)):
            problems.append(f"stage walk {outcome} differs from teleport_exact")
    return problems


# ----------------------------------------------------------------- workloads

class Workload:
    """Interface shared by the three workloads."""

    name = ""
    #: Doubles one trial draws, for the shared-generator probe.
    draws_per_trial = 0
    trials_per_batch = 0

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.template = circuit_template()

    def messages(self, round_index: int, count: int) -> list[Message]:
        raise NotImplementedError

    def warm_up(self) -> None:
        """First calls of each kind, at small sizes."""
        exact_call(self.messages(0, 1)[0])

    def sample_calls(self, round_index: int) -> list:
        """The public calls of one sampling batch of `trials_per_batch`
        trials, as zero-argument callables timed one by one."""
        raise NotImplementedError

    def check_sample(self, round_index: int, results: list, tally: Tally,
                     ref: Reference) -> None:
        """Check what `sample_calls` returned (or raised)."""
        raise NotImplementedError

    def prepare_trace(self, tally: Tally) -> None:
        """Untimed reference results the traced replay is checked against."""

    def traced_batch(self, round_index: int, tracer, tag: str):
        raise NotImplementedError

    def check_traced(self, round_index: int, batch, tally: Tally,
                     ref: Reference, counts: Counter) -> None:
        raise NotImplementedError

    def stream_ranges(self, round_index: int) -> list[tuple[int, int]]:
        """(seed, trials) per library call of one sampling batch: the
        per-trial streams the batch spawns."""
        raise NotImplementedError

    @property
    def digest_status(self) -> str:
        return "no output files"


def _seeded(seed: int, round_index: int) -> int:
    """Distinct non-negative library seed per workload seed and round."""
    return seed * 1_000_003 + round_index


@dataclass(frozen=True)
class Command:
    """One fixed-message CLI call: the subcommand and its own flags, then
    the efficiency and output format. `kind` names the library path it
    takes: teleport, a verification variant (full, merged, direct) or dsl."""

    name: str
    flags: tuple[str, ...]
    fmt: str
    eta: float
    kind: str


_STATIONS = {
    "teleport": StationConfig(correction=True, verifier=None),
    "full": StationConfig(correction=True, verifier="parallel"),
    "merged": StationConfig(correction=False, verifier="merged"),
    "direct": StationConfig(correction=False, verifier="direct"),
}


def _full_csv_problems(data: bytes) -> list[str]:
    """Kept trials of the parallel verifier all pass: pass_count == count."""
    for line in data.decode("utf-8").splitlines()[1:]:
        fields = line.split(",")
        if len(fields) != 5:
            return [f"malformed CSV row {line!r}"]
        outcome, count, _, pass_count, _ = fields
        if outcome != "lost" and pass_count != count:
            return [f"parallel verifier {outcome}: {pass_count} of {count} passed"]
    return []


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class FixedMessage(Workload):
    name = "fixed-message"
    draws_per_trial = 3
    trials_per_batch = 5 * CLI_TRIALS

    def __init__(self, seed: int, workdir: Path, golden: dict | None) -> None:
        super().__init__(seed, workdir)
        rng = random.Random(f"fixed-message/{seed}")
        theta = rng.uniform(0.1, math.pi - 0.1)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        self.cli_seed = rng.randrange(2 ** 32)
        self.psi = JonesVector.from_bloch(theta, phi)
        self.golden = golden
        self.cli_digests: dict[str, str] = {}
        self.message = make_message(
            self.template,
            (self.psi.alpha.real, self.psi.alpha.imag,
             self.psi.beta.real, self.psi.beta.imag))
        psi_flags = ("--theta", repr(theta), "--phi", repr(phi))
        self.commands = (
            Command("teleport-jsonl", ("teleport", *psi_flags), "jsonl", 0.85, "teleport"),
            Command("verify-full-csv", ("verify", *psi_flags, "--protocol", "full"),
                    "csv", 1.0, "full"),
            Command("verify-nonlocal-jsonl", ("verify", *psi_flags, "--protocol", "nonlocal"),
                    "jsonl", 1.0, "merged"),
            Command("verify-direct-csv", ("verify-direct", *psi_flags), "csv", 1.0, "direct"),
            Command("dsl-run-jsonl", ("dsl-run", str(FIG1)), "jsonl", 0.9, "dsl"),
        )

    def _argv(self, command: Command, trials: int, path: Path) -> list[str]:
        return [*command.flags, "--eta", repr(command.eta), "--format", command.fmt,
                "--trials", str(trials), "--seed", str(self.cli_seed), "--out", str(path)]

    def _path(self, command: Command, tag: str = "") -> Path:
        return self.workdir / f"{command.name}{tag}.{command.fmt}"

    def messages(self, round_index: int, count: int) -> list[Message]:
        return [self.message] * count

    def _cli(self, command: Command, trials: int = CLI_TRIALS) -> None:
        """`cli.main` for `command`; a non-zero return code raises."""
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(self._argv(command, trials, self._path(command)))
        if code != 0:
            raise RuntimeError(f"{command.name}: cli.main returned {code}")

    def sample_calls(self, round_index):
        return [partial(self._cli, command) for command in self.commands]

    def run_commands(self, trials: int = CLI_TRIALS) -> list:
        """All five commands through `cli.main`: None for each that
        succeeded, or the exception raised."""
        return [call_or_exception(partial(self._cli, command, trials))
                for command in self.commands]

    def warm_up(self) -> None:
        super().warm_up()
        self.run_commands(trials=10)

    def _output_problems(self, command: Command, path: Path, expected: str | None,
                         reference: str) -> list[str]:
        data = path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        problems = []
        if expected is not None and digest != expected:
            problems.append(f"{command.name}: digest differs from {reference}")
        if command.kind == "full":
            problems += _full_csv_problems(data)
        return problems

    def _check_cli(self, results: list, tally: Tally) -> None:
        for command, result in zip(self.commands, results):
            if isinstance(result, Exception):
                tally.record(_raised(result))
                continue
            expected = self.golden.get(command.name) if self.golden else None
            tally.record(self._output_problems(command, self._path(command), expected,
                                               "the golden digest"))

    def check_sample(self, round_index, results, tally, ref):
        self._check_cli(results, tally)

    def output_digests(self) -> dict[str, str]:
        """sha256 of each command's output file from the last run."""
        return {command.name: sha256_file(self._path(command)) for command in self.commands}

    def prepare_trace(self, tally: Tally) -> None:
        self._check_cli(self.run_commands(), tally)
        self.cli_digests = self.output_digests()

    def _replay(self, command: Command, path: Path, tracer):
        """What `cli.main` does for `command`, minus argument parsing and
        the stderr summary, through the library calls it makes."""
        report = None
        with tracer.span("cli.main"):
            if command.kind == "dsl":
                text = FIG1.read_text(encoding="utf-8")
                with tracer.span("dsl.parse"):
                    program = parse(text).program
                with tracer.span("dsl.compile_and_run"):
                    run = compile_and_run(program, trials=CLI_TRIALS, seed=self.cli_seed,
                                          eta=command.eta)
                records = run.records
            elif command.kind == "teleport":
                with tracer.span("sampling.run_trials"):
                    records = run_trials(self.psi, CLI_TRIALS, DetectorModel(command.eta),
                                         self.cli_seed, _STATIONS["teleport"])
            else:
                with tracer.span("verification.run_verification"):
                    with tracer.span("sampling.run_trials"):
                        records = run_trials(self.psi, CLI_TRIALS,
                                             DetectorModel(command.eta), self.cli_seed,
                                             _STATIONS[command.kind])
                    with tracer.span("verification.build_report"):
                        report = build_report(command.kind, records)
            with tracer.span("cli.write_events"):
                with open(path, "w", encoding="utf-8", newline="\n") as sink:
                    write_events(records, sink, command.fmt)
        return records, report

    def traced_batch(self, round_index, tracer, tag):
        batch = []
        for command in self.commands:
            path = self._path(command, f"-{tag}-{round_index}")
            try:
                batch.append((command, path, *self._replay(command, path, tracer)))
            except Exception as exc:  # a failed operation; the pass goes on
                batch.append((command, path, exc, None))
        return batch

    def check_traced(self, round_index, batch, tally, ref, counts):
        for command, path, records, report in batch:
            if isinstance(records, Exception):
                tally.record(_raised(records))
                continue
            tally.record(self._output_problems(
                command, path, self.cli_digests.get(command.name, "missing"),
                "the cli.main output"))
            counts["cli.bytes_written"] += path.stat().st_size
            if command.kind != "dsl":
                counts["sampling.trials"] += len(records)
                counts["sampling.kept"] += sum(1 for r in records if not r.lost)
            if report is not None:
                for cell in report.cells.values():
                    counts["verification.checked"] += cell.count
                    counts["verification.passed"] += cell.passes

    def stream_ranges(self, round_index):
        return [(self.cli_seed, CLI_TRIALS)] * len(self.commands)

    @property
    def digest_status(self) -> str:
        if self.golden:
            return f"checked against the golden digests for seed {self.seed}"
        return f"unchecked: no golden digests recorded for seed {self.seed}"


def _haar_problems(records, report) -> list[str]:
    if len(records) != HAAR_TRIALS:
        return [f"run_trials returned {len(records)} records"]
    if report.matched_pass_rate() not in (None, 1.0):
        return ["parallel verifier pass ratio below 1"]
    return []


class HaarMessages(Workload):
    name = "haar-messages"
    draws_per_trial = 7
    trials_per_batch = HAAR_CALLS * HAAR_TRIALS

    def messages(self, round_index, count):
        rng = random.Random(f"haar-messages/{self.seed}/{round_index}")
        out = []
        for _ in range(count):
            v = [rng.gauss(0.0, 1.0) for _ in range(4)]
            norm = math.sqrt(sum(x * x for x in v))
            out.append(make_message(self.template, [x / norm for x in v]))
        return out

    def _seed(self, round_index: int, part: int) -> int:
        return _seeded(self.seed, round_index * HAAR_CALLS + part)

    def _trials(self, round_index: int, part: int, n_trials: int = HAAR_TRIALS):
        return run_trials(None, n_trials, DetectorModel(HAAR_ETA),
                          self._seed(round_index, part), _STATIONS["full"])

    def _verified(self, round_index: int, part: int):
        records = self._trials(round_index, part)
        return records, build_report("full", records)

    def warm_up(self) -> None:
        super().warm_up()
        build_report("full", self._trials(0, 0, 5))

    def sample_calls(self, round_index):
        return [partial(self._verified, round_index, part) for part in range(HAAR_CALLS)]

    def check_sample(self, round_index, results, tally, ref):
        for result in results:
            if isinstance(result, Exception):
                tally.record(_raised(result))
            else:
                tally.record(_haar_problems(*result))

    def traced_batch(self, round_index, tracer, tag):
        batch = []
        for part in range(HAAR_CALLS):
            try:
                with tracer.span("sampling.run_trials"):
                    records = self._trials(round_index, part)
                with tracer.span("verification.build_report"):
                    batch.append((records, build_report("full", records)))
            except Exception as exc:  # a failed operation; the pass goes on
                batch.append(exc)
        return batch

    def check_traced(self, round_index, batch, tally, ref, counts):
        self.check_sample(round_index, batch, tally, ref)
        for result in batch:
            if isinstance(result, Exception):
                continue
            records, report = result
            counts["sampling.trials"] += len(records)
            counts["sampling.kept"] += sum(1 for r in records if not r.lost)
            for cell in report.cells.values():
                counts["verification.checked"] += cell.count
                counts["verification.passed"] += cell.passes

    def stream_ranges(self, round_index):
        return [(self._seed(round_index, part), HAAR_TRIALS) for part in range(HAAR_CALLS)]


class BellSweep(Workload):
    name = "bell-sweep"
    draws_per_trial = 4
    trials_per_batch = len(BELL_ETAS) * BELL_TRIALS

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.encodings = [
            make_message(self.template, (e.alpha.real, e.alpha.imag,
                                         e.beta.real, e.beta.imag))
            for e in default_scan_config().encodings]

    def config(self, round_index: int):
        return default_scan_config(trials=BELL_TRIALS,
                                   seed=_seeded(self.seed, round_index))

    def messages(self, round_index, count):
        return [self.encodings[k % 2] for k in range(count)]

    @staticmethod
    def _correlators(config):
        return [[exact_correlator(config.encodings[i], config.settings[j], config.binning[i])
                 for j in range(2)] for i in range(2)]

    def warm_up(self) -> None:
        super().warm_up()
        config = self.config(0)
        chsh_scan(config.encodings, config.settings, binning=config.binning,
                  n_trials=10, seed=config.seed)
        self._correlators(config)

    def _problems(self, rows, correlators, grid, ref: Reference) -> list[str]:
        problems = []
        (e00, e01), (e10, e11) = correlators
        if _off(e00 + e01 + e10 - e11, ref.chsh_s, ref.tol):
            problems.append("exact S of the default scan off the reference")
        if _off(grid.s, ref.chsh_s, ref.tol):
            problems.append("grid search S off the reference")
        if tuple(row.eta for row in rows) != BELL_ETAS:
            problems.append("efficiency rows out of order")
        kept = [round(row.coincidence_rate * BELL_TRIALS)
                for row in sorted(rows, key=lambda row: row.eta)]
        if any(low > high for low, high in zip(kept, kept[1:])):
            problems.append("kept-trial counts decrease as efficiency rises")
        return problems

    def sample_calls(self, round_index):
        config = self.config(round_index)
        return [partial(efficiency_report, config, BELL_ETAS),
                partial(self._correlators, config),
                grid_search_chsh]

    def check_sample(self, round_index, results, tally, ref):
        failed = [r for r in results if isinstance(r, Exception)]
        tally.record(_raised(failed[0]) if failed else self._problems(*results, ref))

    def traced_batch(self, round_index, tracer, tag):
        """efficiency_report as its chsh_scan calls, exact_correlator as
        its joint_distribution calls, then the grid search."""
        config = self.config(round_index)
        try:
            with tracer.span("bellmode.efficiency_report"):
                scans = []
                for eta in BELL_ETAS:
                    with tracer.span("bellmode.chsh_scan"):
                        scans.append(chsh_scan(config.encodings, config.settings,
                                               binning=config.binning, eta=eta,
                                               n_trials=config.trials, seed=config.seed))
            with tracer.span("bellmode.exact_correlator"):
                correlators = [[0.0, 0.0], [0.0, 0.0]]
                for i in range(2):
                    signs = np.array([config.binning[i][out] for out in OUTCOMES], dtype=float)
                    for j in range(2):
                        with tracer.span("bellmode.joint_distribution"):
                            table = joint_distribution(AliceStrategy((config.encodings[i],)),
                                                       config.settings[j])
                        block = table.probabilities[0]
                        correlators[i][j] = float(signs @ (block[:, 0] - block[:, 1]))
            with tracer.span("bellmode.grid_search_chsh"):
                grid = grid_search_chsh()
        except Exception as exc:  # a failed operation; the pass goes on
            return exc
        return scans, correlators, grid

    def check_traced(self, round_index, batch, tally, ref, counts):
        if isinstance(batch, Exception):
            tally.record(_raised(batch))
            return
        scans, correlators, grid = batch
        config = self.config(round_index)
        rows = efficiency_report(config, BELL_ETAS)
        replayed = [(eta, s.empirical_s, s.stderr, s.coincidence_rate)
                    for eta, s in zip(BELL_ETAS, scans)]
        problems = []
        if [repr(r) for r in replayed] != [repr((row.eta, row.post_selected_s, row.stderr,
                                                 row.coincidence_rate)) for row in rows]:
            problems.append("chsh_scan replay differs from efficiency_report")
        expected = self._correlators(config)
        if any(_off(correlators[i][j], expected[i][j], ref.tol)
               for i in range(2) for j in range(2)):
            problems.append("joint_distribution correlators differ from exact_correlator")
        tally.record(problems + self._problems(rows, correlators, grid, ref))
        for scan in scans:
            counts["bellmode.chsh_scan.trials"] += scan.n_trials
            counts["bellmode.kept"] += scan.n_kept

    def stream_ranges(self, round_index):
        return [(self.config(round_index).seed, BELL_TRIALS)] * len(BELL_ETAS)


def make_workload(name: str, seed: int, workdir: Path,
                  golden: dict | None = None) -> Workload:
    """`golden` maps fixed-message command names to recorded digests."""
    if name == "fixed-message":
        return FixedMessage(seed, workdir, golden)
    if name == "haar-messages":
        return HaarMessages(seed, workdir)
    if name == "bell-sweep":
        return BellSweep(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
