"""In-memory span recorder for the traced benchmark run.

A span is [name, start, end, parent index, op id]. Spans opened while no
other span is open are roots; each root starts a new op, and every span
under it shares that op id. Spans stay in memory until `write` dumps them.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import process_time


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        tracer = self.tracer
        stack = tracer.stack
        if not stack:
            tracer.op += 1
        self.index = len(tracer.spans)
        tracer.spans.append(
            [self.name, process_time(), 0.0, stack[-1] if stack else -1, tracer.op])
        stack.append(self.index)

    def __exit__(self, *exc) -> bool:
        self.tracer.spans[self.index][2] = process_time()
        self.tracer.stack.pop()
        return False


class _NoSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NO_SPAN = _NoSpan()


class NullTracer:
    """Same interface as Tracer, records nothing: the untraced pass."""

    def span(self, name: str) -> _NoSpan:
        return _NO_SPAN


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def summary(self) -> tuple[dict[str, float], dict[str, float], dict[str, int], float]:
        """Per-name busy seconds, self seconds and calls, plus the summed
        duration of root spans. Self time is a span's duration minus the
        durations of its direct children."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        busy: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        rooted = 0.0
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            duration = end - start
            busy[name] += duration
            own[name] += duration - child_time[index]
            calls[name] += 1
            if parent < 0:
                rooted += duration
        return busy, own, calls, rooted

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as sink:
            for name, start, end, parent, op in self.spans:
                sink.write(json.dumps({"name": name, "start": start, "end": end,
                                       "parent": parent, "run": self.run_id,
                                       "op": op}) + "\n")
