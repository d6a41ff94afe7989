"""In-memory span recorder for the benchmark's traced runs.

A span is (name, start, end, parent); parents nest by call order, since the
benchmark is single-threaded.  Self time is a span's duration minus the time
its child spans cover.  `NullRecorder` is what untraced runs use: its spans
are a shared no-op context manager and its counters discard their input.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from dataclasses import dataclass

_NULL_SPAN = contextlib.nullcontext()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class NullRecorder:
    """Tracing off: records nothing."""

    def span(self, name: str):
        return _NULL_SPAN

    def count(self, name: str, n: int = 1) -> None:
        pass


class Recorder:
    """Tracing on: keeps every span and counter of one pass in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index].end = time.perf_counter()
            self._open.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for s, covered in zip(self.spans, child_time):
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start - covered)
        return out

    def covered(self) -> float:
        """Seconds covered by top-level spans."""
        return sum(s.end - s.start for s in self.spans if s.parent is None)
