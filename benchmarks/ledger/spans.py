"""In-memory spans recorded around calls into each layer.

A span is ``name, start, end, parent``; every span of one workload run
shares the tracer's ``trace_id``. Spans live in a list until the run
ends and are then written as Chrome-trace JSON (chrome://tracing,
Perfetto). A layer's *self time* is its span minus the part of that
interval its child spans cover.

Spans are opened only from the benchmark's own files, around the
public calls into each layer; nothing inside ``repro`` is patched.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    root: int  # index of the top-level span this one sits under
    child_time: float = 0.0  # summed duration of direct children
    # A synthetic span carries a duration the program metered itself
    # (``substrate.compute_seconds``, ``meta.wall_seconds``): it is laid
    # at the start of its parent, so only its length is meaningful.
    synthetic: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Span recorder; one instance per workload run."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str, start: float, synthetic: bool = False) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = self._stack[0] if self._stack else index
        self.spans.append(Span(name, start, start, parent, root, synthetic=synthetic))
        return index

    def _close(self, index: int, end: float) -> None:
        span = self.spans[index]
        span.end = end
        if span.parent is not None:
            self.spans[span.parent].child_time += span.duration

    @contextmanager
    def span(self, name: str):
        index = self._open(name, time.perf_counter())
        self._stack.append(index)
        try:
            yield self.spans[index]
        finally:
            self._stack.pop()
            self._close(index, time.perf_counter())

    def metered(self, name: str, seconds: float) -> None:
        """Add a child of the open span for time the program metered."""
        start = self.spans[self._stack[-1]].start
        self._close(self._open(name, start, synthetic=True), start + seconds)

    # -- queries ----------------------------------------------------------
    def below(self, root: Span) -> list[Span]:
        """`root` and every span under it."""
        return [s for s in self.spans if s.root == root.root]

    def total(self, name: str, root: Span) -> float:
        """Summed duration of the spans called `name` under `root`."""
        return sum(s.duration for s in self.below(root) if s.name == name)

    def total_self(self, name: str, root: Span) -> float:
        return sum(s.self_time for s in self.below(root) if s.name == name)

    # -- export -----------------------------------------------------------
    def write_chrome_trace(self, path: Path) -> None:
        origin = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": span.name,
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 0,
                "tid": 1 if span.synthetic else 0,
                "args": {"trace_id": self.trace_id, "span": index,
                         "parent": span.parent, "synthetic": span.synthetic},
            }
            for index, span in enumerate(self.spans)
        ]
        path.write_text(json.dumps({"traceEvents": events}) + "\n")
