"""Machine-speed calibration for the end-to-end timings.

On a machine whose cores are shared with other tenants, two things disturb
a timing. The process is descheduled for milliseconds at a time, which
inflates wall time but not CPU time, so every end-to-end timing is taken
in process CPU time. And the speed of the same code drifts by about +-25%
over seconds to minutes, and drops by half or more in bursts of a few
milliseconds, in CPU time as much as in wall time. A short fixed kernel,
timed in CPU time around every measured call or batch, tracks that speed,
and each timing is scaled to the speed at which the kernel takes
REFERENCE_S. Sampling calls last tens of milliseconds and take the kernel
measured before and after their batch; exact-phase messages last about
two milliseconds and take the kernel ticks right before and after each.

The kernel mixes the kinds of work the workloads do (numpy stream spawn
and draws, small complex matrix products, dataclass records, JSON
encoding, sparse dict updates) but calls nothing in teleoptics, so a
change to the package moves the scaled timings and not the kernel.
"""

from __future__ import annotations

import gc
import json
import statistics
from dataclasses import dataclass
from time import process_time

import numpy as np

#: Kernel seconds at the reference speed; scaled timings are at this speed.
REFERENCE_S = 0.0004

_MIX = np.array([[0.6, 0.8j], [0.8j, 0.6]])


@dataclass(frozen=True)
class _Record:
    trial: int
    outcome: str | None
    value: float


def kernel() -> float:
    total = 0.0
    for i in range(10):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(7, spawn_key=(i,))))
        total += float(rng.random()) + float(rng.random())
        record = _Record(i, None if i % 3 else "D1", total)
        total += len(json.dumps({"trial": record.trial, "outcome": record.outcome,
                                 "passed": record.value > 0.0}, separators=(",", ":")))
        vector = _MIX @ np.array([complex(i, 1.0), 0.5j])
        total += abs(complex(np.vdot(vector, vector)))
    amplitudes = {(mode, pol): complex(ord(mode), pol) for mode in "abcd" for pol in (0, 1)}
    for _ in range(4):
        out: dict = {}
        for (mode, _), amplitude in amplitudes.items():
            for pol, weight in ((0, 0.6), (1, 0.8)):
                out[(mode, pol)] = out.get((mode, pol), 0j) + weight * amplitude
        amplitudes = out
    return total


def tick() -> float:
    """CPU seconds of one kernel run. The collector is off meanwhile, so
    garbage the measured code left is not charged here."""
    gc.disable()
    try:
        start = process_time()
        kernel()
        return process_time() - start
    finally:
        gc.enable()


def measure(repeats: int = 15) -> float:
    """Median CPU seconds of `repeats` kernel runs."""
    return statistics.median(tick() for _ in range(repeats))


def _run(call) -> tuple[object, float | None]:
    """What call() returned (or the exception it raised), and its CPU
    seconds, None when it raised."""
    start = process_time()
    try:
        result = call()
    except Exception as exc:  # noqa: BLE001 - the caller's checks count it
        return exc, None
    return result, process_time() - start


def timed_batch(calls) -> tuple[list, list, list]:
    """Run calls one after another, with the kernel measured before and
    after the batch. Returns what each call returned (or raised), its raw
    seconds and its seconds scaled by the mean of the two measures."""
    before = measure()
    results, times = zip(*(_run(call) for call in calls))
    factor = 2.0 * REFERENCE_S / (before + measure())
    return list(results), list(times), [None if t is None else t * factor for t in times]


def timed_between_ticks(calls) -> tuple[list, list, list]:
    """Run calls with one kernel tick before each and after the last, for
    calls short enough that the machine's speed may change from one to the
    next. Returns what each call returned (or raised), its raw seconds and
    its seconds scaled by the mean of the two ticks around it."""
    ticks = [tick()]
    results, times = [], []
    for call in calls:
        result, seconds = _run(call)
        ticks.append(tick())
        results.append(result)
        times.append(seconds)
    scaled = [None if t is None else t * 2.0 * REFERENCE_S / (ticks[k] + ticks[k + 1])
              for k, t in enumerate(times)]
    return results, times, scaled
