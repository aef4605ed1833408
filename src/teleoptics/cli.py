"""Command-line front end.

Subcommands: teleport (run the bench), verify / verify-direct (subensemble
checks), bell-sweep (efficiency scan of the correlation mode), dsl-run
(execute a circuit file). Events stream as JSON lines; summaries as CSV.
Exit codes: 0 ok, 1 usage, 2 circuit diagnostics, 3 runtime guard.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Sequence

from .bellmode import default_scan_config, efficiency_report
from .dsl import compile_and_run, parse
from .errors import SimulationError
from .events import fmt17, write_events
from .protocol import OUTCOMES, teleport_exact
from .sampling import DetectorModel, EventRecord, StationConfig, run_trials
from .states import JonesVector
from .verification import run_verification

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DIAGNOSTICS = 2
EXIT_GUARD = 3


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message: str):  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_psi_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--theta", type=float, default=None,
                        help="polar angle in [0, pi]; state is "
                             "cos(theta/2)|H> + e^(i phi) sin(theta/2)|V>")
    parser.add_argument("--phi", type=float, default=None,
                        help="azimuthal angle in radians (default 0)")
    parser.add_argument("--psi", type=float, nargs=4, default=None,
                        metavar=("AR", "AI", "BR", "BI"),
                        help="explicit components, four reals; must be normalized")


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {seed}")
    return seed


def _add_run_flags(parser: argparse.ArgumentParser, default_trials: int) -> None:
    parser.add_argument("--trials", type=int, default=default_trials,
                        help=f"number of trials (default {default_trials})")
    parser.add_argument("--seed", type=_seed, default=0,
                        help="random seed (default 0)")
    parser.add_argument("--eta", type=float, default=1.0,
                        help="detector efficiency in [0, 1] (default 1)")
    parser.add_argument("--out", default="-",
                        help="output path, or - for stdout (default -)")
    parser.add_argument("--format", choices=("jsonl", "csv"), default="jsonl",
                        help="jsonl events or csv summary (default jsonl)")


def _psi_from_args(parser: argparse.ArgumentParser,
                   args: argparse.Namespace) -> JonesVector:
    if args.psi is not None:
        if args.theta is not None or args.phi is not None:
            parser.error("--psi cannot be combined with --theta/--phi")
        try:
            return JonesVector.from_components(*args.psi)
        except SimulationError as exc:
            parser.error(f"--psi: {exc}")
    if args.theta is None:
        parser.error("one of --theta or --psi is required")
    try:
        return JonesVector.from_bloch(args.theta, args.phi or 0.0)
    except SimulationError as exc:
        parser.error(f"--theta/--phi: {exc}")
    raise AssertionError("unreachable")


def _check_run_args(parser: argparse.ArgumentParser, args: argparse.Namespace,
                    min_trials: int = 1) -> None:
    if args.trials < min_trials:
        parser.error(f"--trials must be at least {min_trials}, got {args.trials}")
    if not 0.0 <= args.eta <= 1.0:
        parser.error(f"--eta must lie in [0, 1], got {args.eta}")


@contextlib.contextmanager
def _open_sink(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            yield handle


def _write_records(args: argparse.Namespace, records: Sequence[EventRecord]) -> None:
    with _open_sink(args.out) as sink:
        write_events(records, sink, args.format)


def _cmd_teleport(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    psi = _psi_from_args(parser, args)
    _check_run_args(parser, args)
    records = run_trials(psi, args.trials, DetectorModel(args.eta), args.seed,
                         StationConfig(correction=True, verifier=None))
    _write_records(args, records)
    exact = teleport_exact(psi)
    kept = sum(1 for r in records if not r.lost)
    print(f"teleport: trials={args.trials} kept={kept} lost={len(records) - kept}",
          file=sys.stderr)
    for out in OUTCOMES:
        frequency = sum(1 for r in records if r.outcome == out.value) / len(records)
        print(f"  {out.value}: frequency {frequency:.6g} "
              f"exact_p {exact[out].probability:.6g} "
              f"fidelity {exact[out].fidelity:.6g}", file=sys.stderr)
    return EXIT_OK


def _cmd_verify(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    psi = _psi_from_args(parser, args)
    _check_run_args(parser, args)
    variant = {"full": "full", "nonlocal": "merged"}[args.protocol] \
        if hasattr(args, "protocol") else "direct"
    records, report = run_verification(psi, args.trials, args.eta, args.seed, variant)
    _write_records(args, records)
    name = getattr(args, "protocol", "direct")
    print(f"verify ({name}): trials={report.n_trials} lost={report.n_lost}",
          file=sys.stderr)
    matched = report.matched_pass_rate()
    print(f"  matched pass rate: "
          f"{'n/a' if matched is None else format(matched, '.6g')}", file=sys.stderr)
    if variant != "full":
        for (setting, outcome), stats in report.cells.items():
            print(f"  setting {setting} x {outcome}: rate "
                  f"{format(stats.rate, '.6g')} n={stats.count}", file=sys.stderr)
    return EXIT_OK


def _cmd_bell_sweep(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.trials < 1:
        parser.error(f"--trials must be at least 1, got {args.trials}")
    for eta in args.etas:
        if not 0.0 <= eta <= 1.0:
            parser.error(f"--etas values must lie in [0, 1], got {eta}")
    config = default_scan_config(trials=args.trials, seed=args.seed)
    rows = efficiency_report(config, args.etas)
    with _open_sink(args.out) as sink:
        sink.write("eta,post_selected_s,coincidence_rate\n")
        for row in rows:
            sink.write(f"{fmt17(row.eta)},{fmt17(row.post_selected_s)},"
                       f"{fmt17(row.coincidence_rate)}\n")
    print(f"bell-sweep: trials={args.trials} seed={args.seed}", file=sys.stderr)
    for row in rows:
        print(f"  eta {row.eta:.6g}: S {row.post_selected_s:.6g} "
              f"+- {row.stderr:.6g}, coincidence {row.coincidence_rate:.6g}",
              file=sys.stderr)
    return EXIT_OK


def _cmd_dsl_run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.trials < 0:
        parser.error(f"--trials must be non-negative, got {args.trials}")
    if not 0.0 <= args.eta <= 1.0:
        parser.error(f"--eta must lie in [0, 1], got {args.eta}")
    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        parser.error(f"cannot read {args.file}: {exc}")
    result = parse(text)
    if not result.ok:
        for diagnostic in result.diagnostics:
            print(f"{args.file}: {diagnostic.render()}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    run = compile_and_run(result.program, trials=args.trials, seed=args.seed,
                          eta=args.eta)
    _write_records(args, run.records)
    if run.final_state is not None:
        print(f"dsl-run: exact state, {len(run.final_state)} basis kets, "
              f"norm^2 {run.final_state.squared_norm():.12g}", file=sys.stderr)
    if run.table is not None:
        branch = " ".join(
            f"{label}={p:.6g}"
            for label, p in zip(run.table.labels, run.table.probabilities)
        )
        print(f"dsl-run: branches {branch}", file=sys.stderr)
    if args.trials:
        print(f"dsl-run: wrote {len(run.records)} records", file=sys.stderr)
    return EXIT_OK


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="teleoptics",
                             description="Linear-optical teleportation bench")
    commands = parser.add_subparsers(dest="command", required=True)

    teleport = commands.add_parser("teleport", help="run the corrected protocol")
    _add_psi_flags(teleport)
    _add_run_flags(teleport, default_trials=10000)
    teleport.set_defaults(handler=_cmd_teleport, parser=teleport)

    verify = commands.add_parser("verify", help="subensemble verification")
    _add_psi_flags(verify)
    _add_run_flags(verify, default_trials=10000)
    verify.add_argument("--protocol", choices=("full", "nonlocal"),
                        default="full",
                        help="full: corrected, message-aligned polarizer; "
                             "nonlocal: uncorrected four-setting polarizer")
    verify.set_defaults(handler=_cmd_verify, parser=verify)

    verify_direct = commands.add_parser(
        "verify-direct", help="subensemble verification on the direction rails")
    _add_psi_flags(verify_direct)
    _add_run_flags(verify_direct, default_trials=10000)
    verify_direct.set_defaults(handler=_cmd_verify, parser=verify_direct)

    bell = commands.add_parser("bell-sweep",
                               help="efficiency sweep of the correlation mode")
    bell.add_argument("--trials", type=int, default=20000,
                      help="trials per efficiency value (default 20000)")
    bell.add_argument("--seed", type=_seed, default=11,
                      help="random seed shared across the sweep (default 11)")
    bell.add_argument("--etas", type=float, nargs="+",
                      default=[1.0, 0.9, 0.75, 0.5, 0.25],
                      help="efficiency grid (default 1 0.9 0.75 0.5 0.25)")
    bell.add_argument("--out", default="-",
                      help="output path, or - for stdout (default -)")
    bell.set_defaults(handler=_cmd_bell_sweep, parser=bell)

    dsl = commands.add_parser("dsl-run", help="execute a circuit file")
    dsl.add_argument("file", help="circuit file path")
    _add_run_flags(dsl, default_trials=0)
    dsl.set_defaults(handler=_cmd_dsl_run, parser=dsl)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args.parser, args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    except SimulationError as exc:
        print(f"runtime guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
