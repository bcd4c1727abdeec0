"""Span-based tracing pinned to :class:`~repro.simgpu.clock.SimClock`.

A span is a named, labelled interval — "this training batch", "this
secure matmul" — recorded on **two timebases at once**:

* *simulated* seconds, read from a named ``SimClock`` (offline or
  online), so spans compose with the paper's phase accounting; and
* *wall-clock* seconds (``time.perf_counter``), so the reproduction's
  own Python cost is visible too.

Spans nest: entering a span inside another records parent/depth, which
the Chrome-trace exporter turns into a flame-graph-like lane and the
report renders as an indented tree.  The simulated interval of a span is
the *makespan delta* of its clock — the time the spanned work pushed the
simulated frontier forward.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class SpanRecord:
    """One (possibly still open) span."""

    name: str
    labels: dict[str, str] = field(default_factory=dict)
    clock: str = ""
    index: int = 0
    parent: int | None = None
    depth: int = 0
    sim_start: float = 0.0
    sim_end: float = 0.0
    wall_start: float = 0.0
    wall_end: float = 0.0
    finished: bool = False

    @property
    def sim_duration(self) -> float:
        return self.sim_end - self.sim_start


class SpanLog:
    """Ordered log of spans with a nesting stack."""

    def __init__(self):
        self._spans: list[SpanRecord] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, *, clock_name: str = "", now=None, **labels):
        """Record one span; ``now`` is a zero-arg callable for sim time."""
        record = SpanRecord(
            name=name,
            labels={str(k): str(v) for k, v in labels.items()},
            clock=clock_name,
            index=len(self._spans),
            parent=self._stack[-1] if self._stack else None,
            depth=len(self._stack),
        )
        self._spans.append(record)
        self._stack.append(record.index)
        record.sim_start = float(now()) if now is not None else 0.0
        record.wall_start = time.perf_counter()
        try:
            yield record
        finally:
            record.wall_end = time.perf_counter()
            record.sim_end = float(now()) if now is not None else record.sim_start
            record.finished = True
            self._stack.pop()

    def finished(self, prefix: str | None = None) -> list[SpanRecord]:
        """Completed spans, optionally filtered by name prefix."""
        return [
            s
            for s in self._spans
            if s.finished and (prefix is None or s.name.startswith(prefix))
        ]
