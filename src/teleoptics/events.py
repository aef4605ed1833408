"""Serialization of trial records: JSON lines or a CSV summary."""

from __future__ import annotations

import json
from typing import IO, Sequence

from .errors import SimulationError
from .sampling import EventRecord


def fmt17(value: float) -> str:
    """Round-trip-exact text for a float in CSV output."""
    return format(float(value), ".17g")


def write_events(records: Sequence[EventRecord], sink: IO[str],
                 format: str = "jsonl") -> None:
    """Serialize trial records: one JSON object per line, or a CSV summary
    with columns outcome,count,frequency,pass_count,pass_rate."""
    if format == "jsonl":
        for record in records:
            payload = {
                "trial": record.trial,
                "outcome": record.outcome if record.outcome is not None else "lost",
                "correction_c1": record.correction.fire_c1 if record.correction else None,
                "correction_c2": record.correction.fire_c2 if record.correction else None,
                "verifier_setting": record.verifier_setting,
                "passed": record.passed,
            }
            sink.write(json.dumps(payload, separators=(",", ":")) + "\n")
        return
    if format != "csv":
        raise SimulationError(f"unknown format {format!r}")
    sink.write("outcome,count,frequency,pass_count,pass_rate\n")
    if not records:
        return
    labels = sorted({r.outcome for r in records if r.outcome is not None})
    total = len(records)
    for label in labels + ["lost"]:
        if label == "lost":
            group = [r for r in records if r.outcome is None]
        else:
            group = [r for r in records if r.outcome == label]
        count = len(group)
        checked = [r for r in group if r.passed is not None]
        passes = sum(1 for r in checked if r.passed)
        pass_count = str(passes) if checked else ""
        pass_rate = fmt17(passes / len(checked)) if checked else ""
        sink.write(
            f"{label},{count},{fmt17(count / total)},{pass_count},{pass_rate}\n"
        )
