"""Benchmark of the teleoptics bench, run from the repository root:

    python3 bench/run.py --workload fixed-message --seed 0 --seconds 30 --trace 0

Workloads: fixed-message, haar-messages, bell-sweep (see workloads.py).
Each is a closed loop in one process and one thread, BLAS pinned to one
thread, alternating a sampling batch with an exact batch until --seconds
have passed. The package is imported from ./src of this checkout.

--trace 0 measures the end-to-end metrics, with no tracing: sampled trials
per second (median over batches), exact-phase messages per second (median
over batches) with the median and 99th-percentile time per message, the
set-up time of fresh processes, and peak RSS. Times are process CPU time
scaled by a calibration kernel (see calibration.py).

--trace 1 replays a fixed amount of the workload through finer public calls,
in four passes alternating between no spans and spans, and reports
per-layer busy and self CPU time, call counts, work counts and ratios, the
tracing overhead, and the trial_stream cost probe. Spans are written to
.bench_out/.

Every operation's output is checked. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Lines above it print
the same metrics for people, with error_rate and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from functools import partial
from pathlib import Path
from time import perf_counter, process_time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

# calibration and workloads import numpy and teleoptics, so they are
# imported inside functions, after import_package: a set-up probe then
# times those imports.
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = BENCH / "golden.json"

WORKLOAD_NAMES = ("fixed-message", "haar-messages", "bell-sweep")

#: Exact-phase messages per round, timed and traced.
EXACT_BATCH = 150
TRACE_EXACT_BATCH = 50
#: Rounds in each pass of the traced run; fixed, so counts repeat exactly.
TRACE_ROUNDS = 2
#: Fresh processes timed for setup_s.
SETUP_REPEATS = 7
#: Runs shorter than this many rounds still report every metric.
MIN_ROUNDS = 3

END_TO_END = {
    "trials_per_s": "trials/s",
    "messages_per_s": "msgs/s",
    "exact_p50_us": "us",
    "exact_p99_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Span names; each reports busy_s and calls.
SPANS = (
    "cli.main", "cli.write_events",
    "sampling.run_trials",
    "verification.run_verification", "verification.build_report",
    "protocol.teleport_exact", "protocol.source_state", "protocol.preparer_encode",
    "protocol.alice_transform", "protocol.branch_table", "protocol.bob_decode",
    "protocol.apply_correction",
    "states.apply_one_photon_map", "states.apply_map",
    "elements.build",
    "dsl.parse", "dsl.compile_and_run",
    "bellmode.efficiency_report", "bellmode.chsh_scan", "bellmode.exact_correlator",
    "bellmode.joint_distribution", "bellmode.grid_search_chsh",
)
#: Spans with children; these also report self_s.
PARENT_SPANS = (
    "cli.main", "verification.run_verification", "protocol.teleport_exact",
    "protocol.preparer_encode", "protocol.alice_transform", "protocol.bob_decode",
    "bellmode.efficiency_report", "bellmode.exact_correlator",
)
PER_LAYER = {
    **{f"{name}.busy_s": "s" for name in SPANS},
    **{f"{name}.self_s": "s" for name in PARENT_SPANS},
    **{f"{name}.calls": "count" for name in SPANS},
    "sampling.trials": "count",
    "sampling.kept_ratio": "ratio",
    "sampling.trial_stream.us_per_call": "us",
    "sampling.shared_draw.us_per_trial": "us",
    "cli.bytes_written": "bytes",
    "verification.pass_ratio": "ratio",
    "states.kets_in": "count",
    "bellmode.chsh_scan.trials": "count",
    "bellmode.coincidence_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.span_coverage": "ratio",
}


def import_package():
    """Import teleoptics from this checkout's src/, or exit non-zero."""
    if not (SRC / "teleoptics" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {SRC / 'teleoptics'}")
    sys.path.insert(0, str(SRC))
    import teleoptics
    if Path(teleoptics.__file__).resolve().parent != SRC / "teleoptics":
        raise SystemExit(f"bench: imported teleoptics from {teleoptics.__file__}, "
                         f"not from {SRC}")


def load_golden(seed: int) -> dict | None:
    """The recorded fixed-message digests for `seed`, or None if none were
    recorded for it. Exits if they were recorded at another trial count."""
    import workloads

    if not GOLDEN.is_file():
        return None
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if golden["trials_per_command"] != workloads.CLI_TRIALS:
        raise SystemExit(f"bench: {GOLDEN.name} holds digests of "
                         f"{golden['trials_per_command']} trials per command; the "
                         f"benchmark runs {workloads.CLI_TRIALS}")
    return golden["digests"].get(str(seed))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -------------------------------------------------------------------- set-up

def setup_probe(workload: str, seed: int) -> dict:
    """In a fresh process: import the package, build the workload's inputs
    and finish its warm-up calls. Returns the seconds this took and the
    calibration kernel's seconds right after."""
    start = process_time()
    import_package()
    import calibration
    import workloads
    workdir = OUT / f"setup-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workloads.make_workload(workload, seed, workdir, load_golden(seed)).warm_up()
        setup_s = process_time() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"setup_s": setup_s, "calibration_s": calibration.measure()}


def measure_setup(workload: str, seed: int, repeats: int) -> tuple[list[float], list[float]]:
    """Raw and speed-scaled set-up seconds of `repeats` fresh processes."""
    import calibration

    raw, scaled = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        raw.append(probe["setup_s"])
        scaled.append(probe["setup_s"] * calibration.REFERENCE_S / probe["calibration_s"])
    return raw, scaled


# ------------------------------------------------------------ untraced run

def run_untraced(workload, seconds: float, ref, setup_repeats: int) -> dict:
    """Alternate sampling and exact batches for `seconds`. Every public call
    is timed in CPU time and scaled by the calibration kernel timed around
    it (see calibration.py)."""
    import calibration
    import workloads

    setup_raw, setup_scaled = measure_setup(workload.name, workload.seed, setup_repeats)
    workload.warm_up()
    tally = workloads.Tally()
    trial_rates, raw_trial_rates, message_rates = [], [], []
    latencies, raw_latencies = [], []
    deadline = perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or perf_counter() < deadline:
        results, raw, scaled = calibration.timed_batch(workload.sample_calls(rounds))
        workload.check_sample(rounds, results, tally, ref)
        if None not in raw:
            trial_rates.append(workload.trials_per_batch / sum(scaled))
            raw_trial_rates.append(workload.trials_per_batch / sum(raw))
        # the first message runs untimed: it would pay for the caches the
        # sampling batch and the calibration kernel left cold
        first, *messages = workload.messages(rounds, EXACT_BATCH + 1)
        workloads.check_exact_call(
            first, workloads.call_or_exception(partial(workloads.exact_call, first)),
            tally, ref)
        results, raw, scaled = calibration.timed_between_ticks(
            [partial(workloads.exact_call, message) for message in messages])
        for message, result in zip(messages, results):
            workloads.check_exact_call(message, result, tally, ref)
        ran = [k for k, t in enumerate(raw) if t is not None]
        if ran:
            message_rates.append(len(ran) / sum(scaled[k] for k in ran))
            latencies.extend(scaled[k] for k in ran)
            raw_latencies.extend(raw[k] for k in ran)
        rounds += 1
    if not (trial_rates and message_rates and len(latencies) > 1):
        raise SystemExit("bench: no batch completed; nothing to report")

    def p99(values):
        return statistics.quantiles(values, n=100, method="inclusive")[98]

    metrics = {
        "trials_per_s": statistics.median(trial_rates),
        "messages_per_s": statistics.median(message_rates),
        "exact_p50_us": statistics.median(latencies) * 1e6,
        "exact_p99_us": p99(latencies) * 1e6,
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    beyond = sum(1 for t in latencies if t > p99(latencies))
    notes = {
        "trials_per_s": f"median of {len(trial_rates)} batches of "
                        f"{workload.trials_per_batch} trials; unscaled "
                        f"{statistics.median(raw_trial_rates):.6g}",
        "messages_per_s": f"median of {len(message_rates)} batches of {EXACT_BATCH}",
        "exact_p50_us": f"{len(latencies)} messages; unscaled "
                        f"{statistics.median(raw_latencies) * 1e6:.6g}",
        "exact_p99_us": f"{len(latencies)} messages, {beyond} above it; unscaled "
                        f"{p99(raw_latencies) * 1e6:.6g}",
        "setup_s": f"median of {len(setup_scaled)} fresh processes; unscaled "
                   f"{statistics.median(setup_raw):.6g}",
        "peak_rss_mb": "ru_maxrss of this process, not scaled",
    }
    return {"tally": tally, "metrics": metrics, "units": END_TO_END, "notes": notes}


# -------------------------------------------------------------- traced run

def _traced_pass(workload, tracer, plan, tag: str):
    """The fixed traced workload; CPU seconds, batches and walks."""
    import workloads

    batches, walks = [], []
    start = process_time()
    for round_index, messages in plan:
        batches.append(workload.traced_batch(round_index, tracer, tag))
        for message in messages:
            try:
                walks.append(workloads.walk_message(message, tracer))
            except Exception as exc:  # a failed operation; the pass goes on
                walks.append(exc)
    return process_time() - start, batches, walks


def _stream_probe(workload, repeats: int = 5) -> tuple[float, float]:
    """Microseconds per trial_stream(seed, i) over the (seed, trial) pairs
    of one sampling batch, and per trial for one shared Generator drawing
    as many doubles as those trials draw."""
    import numpy as np
    from teleoptics import trial_stream

    pairs = [(seed, trial) for seed, trials in workload.stream_ranges(0)
             for trial in range(trials)]
    spawn, shared = [], []
    generator = np.random.Generator(np.random.PCG64(pairs[0][0]))
    for _ in range(repeats):
        start = process_time()
        for seed, trial in pairs:
            trial_stream(seed, trial)
        spawn.append((process_time() - start) / len(pairs) * 1e6)
        start = process_time()
        generator.random(len(pairs) * workload.draws_per_trial)
        shared.append((process_time() - start) / len(pairs) * 1e6)
    return statistics.median(spawn), statistics.median(shared)


def run_traced(workload, ref) -> dict:
    """Replay TRACE_ROUNDS rounds through finer public calls in four passes,
    alternating between no spans and spans; per-layer metrics come from the
    spans, the overhead ratio from the CPU time of the two kinds of pass."""
    import workloads
    from spans import NullTracer, Tracer

    tally = workloads.Tally()
    workload.warm_up()
    workload.prepare_trace(tally)
    plan = [(r, workload.messages(r, TRACE_EXACT_BATCH)) for r in range(TRACE_ROUNDS)]
    messages = [message for _, batch_messages in plan for message in batch_messages]
    tracer = Tracer(f"{workload.name}-seed{workload.seed}-pid{os.getpid()}")
    cpu = {"untraced": 0.0, "traced": 0.0}
    counts: Counter = Counter()
    # untraced, traced, traced, untraced: a steady drift in machine speed
    # cancels out of the overhead ratio
    for index, tag in enumerate(("untraced", "traced", "traced", "untraced")):
        pass_tracer = tracer if tag == "traced" else NullTracer()
        seconds, batches, walks = _traced_pass(workload, pass_tracer, plan, f"{tag}{index}")
        cpu[tag] += seconds
        pass_counts = counts if tag == "traced" else Counter()
        for round_index, batch in enumerate(batches):
            workload.check_traced(round_index, batch, tally, ref, pass_counts)
        for message, walk in zip(messages, walks):
            if isinstance(walk, Exception):
                tally.record([f"raised {type(walk).__name__}: {walk}"])
                continue
            tally.record(workloads.check_walk(message, walk, ref))
            pass_counts["states.kets_in"] += walk.kets_in

    busy, own, calls, rooted = tracer.summary()
    spawn_us, shared_us = _stream_probe(workload)
    metrics = {}
    for name in SPANS:
        metrics[f"{name}.busy_s"] = busy.get(name, 0.0)
        metrics[f"{name}.calls"] = calls.get(name, 0)
    for name in PARENT_SPANS:
        metrics[f"{name}.self_s"] = own.get(name, 0.0)
    metrics.update({
        "sampling.trials": counts["sampling.trials"],
        "sampling.kept_ratio": _ratio(counts["sampling.kept"], counts["sampling.trials"]),
        "sampling.trial_stream.us_per_call": spawn_us,
        "sampling.shared_draw.us_per_trial": shared_us,
        "cli.bytes_written": counts["cli.bytes_written"],
        "verification.pass_ratio": _ratio(counts["verification.passed"],
                                          counts["verification.checked"]),
        "states.kets_in": counts["states.kets_in"],
        "bellmode.chsh_scan.trials": counts["bellmode.chsh_scan.trials"],
        "bellmode.coincidence_ratio": _ratio(counts["bellmode.kept"],
                                             counts["bellmode.chsh_scan.trials"]),
        "trace.overhead_ratio": cpu["traced"] / cpu["untraced"],
        "trace.span_coverage": rooted / cpu["traced"],
    })
    if metrics["trace.span_coverage"] < 0.9:
        tally.record([f"only {metrics['trace.span_coverage']:.3f} of the traced pass "
                      "falls inside spans"])
    trace_path = OUT / f"spans-{workload.name}-seed{workload.seed}.jsonl"
    tracer.write(trace_path)
    notes = {"trace.overhead_ratio": f"traced {cpu['traced']:.3f} s / untraced "
                                     f"{cpu['untraced']:.3f} s of CPU; spans in {trace_path}"}
    return {"tally": tally, "metrics": metrics, "units": PER_LAYER, "notes": notes}


# ------------------------------------------------------------- one run

def run(workload_name: str, seed: int, seconds: float, trace: bool, *,
        golden: dict | None = None, ref=None,
        setup_repeats: int = SETUP_REPEATS) -> dict:
    """One benchmark run. `golden` and `ref` replace the recorded digests
    and the exact reference (the self-checks corrupt them)."""
    import workloads

    if golden is None:
        golden = load_golden(seed)
    if ref is None:
        ref = workloads.Reference()
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make_workload(workload_name, seed, workdir, golden)
        if trace:
            result = run_traced(workload, ref)
        else:
            result = run_untraced(workload, seconds, ref, setup_repeats)
        result["digests"] = workload.digest_status
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(result: dict, header: str) -> str:
    tally = result["tally"]
    lines = [header]
    for name, unit in result["units"].items():
        note = result["notes"].get(name)
        lines.append(f"  {name:40s} {result['metrics'][name]:>16.6g} {unit:8s}"
                     + (f"  ({note})" if note else ""))
    lines.append(f"  {'error_rate':40s} {_ratio(tally.failed, tally.attempted):>16.6g} "
                 f"{'ratio':8s}  ({tally.failed} failed / {tally.attempted} attempted)")
    for reason, count in tally.reasons.most_common():
        lines.append(f"    failure x{count}: {reason}")
    lines.append(f"  digests: {result['digests']}")
    summary = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in result["units"].items()},
    }
    lines.append(json.dumps(summary))
    return "\n".join(lines)


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=_non_negative, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0
    import_package()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(report(result, f"workload {args.workload}  seed {args.seed}  "
                         f"seconds {args.seconds:g}  trace {args.trace}"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
