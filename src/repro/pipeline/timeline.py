"""Trace analysis and Gantt rendering for the simulated clock.

The clock records every task as (resource, label, start, finish); this
module turns that into the quantities the evaluation talks about —
per-resource busy time, overlap between resources (what the pipelines
buy), makespan — plus an ASCII Gantt chart used by the examples.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simgpu.clock import SimClock


def _merge_intervals(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of possibly-overlapping intervals."""
    if not intervals:
        return []
    intervals = sorted(intervals)
    merged = [intervals[0]]
    for start, finish in intervals[1:]:
        last_start, last_finish = merged[-1]
        if start <= last_finish:
            merged[-1] = (last_start, max(last_finish, finish))
        else:
            merged.append((start, finish))
    return merged


def _total(intervals: list[tuple[float, float]]) -> float:
    return sum(b - a for a, b in intervals)


@dataclass
class TimelineSummary:
    """Digest of a trace window."""

    makespan: float
    busy_seconds: dict[str, float]
    span: tuple[float, float]

    def overlap_seconds(self) -> float:
        """Seconds by which summed busy time exceeds the makespan —
        a scalar measure of how much work ran concurrently."""
        return max(0.0, sum(self.busy_seconds.values()) - self.makespan)


def summarize(
    clock: SimClock, *, since: float = 0.0, until: float | None = None
) -> TimelineSummary:
    """Summarise the trace between ``since`` and ``until``."""
    until = clock.now() if until is None else until
    per_resource: dict[str, list[tuple[float, float]]] = {}
    for task in clock.trace:
        start = max(task.start, since)
        finish = min(task.finish, until)
        if finish > start:
            per_resource.setdefault(task.resource, []).append((start, finish))
    busy = {res: _total(_merge_intervals(ivals)) for res, ivals in per_resource.items()}
    return TimelineSummary(makespan=until - since, busy_seconds=busy, span=(since, until))


def render_gantt(
    clock: SimClock,
    *,
    since: float = 0.0,
    until: float | None = None,
    width: int = 78,
    resources: list[str] | None = None,
) -> str:
    """ASCII Gantt chart of the trace window, one row per resource."""
    until = clock.now() if until is None else until
    span = until - since
    if span <= 0:
        return "(empty timeline)"
    rows = resources if resources is not None else clock.resources()
    name_width = max((len(r) for r in rows), default=8)
    lines = [f"{'resource':<{name_width}} | 0 {'-' * (width - 8)} {span:.3e}s"]
    for res in rows:
        cells = [" "] * width
        for task in clock.trace:
            if task.resource != res:
                continue
            lo = max(task.start, since)
            hi = min(task.finish, until)
            if hi <= lo:
                continue
            a = int((lo - since) / span * (width - 1))
            b = max(a + 1, int((hi - since) / span * (width - 1)) + 1)
            for i in range(a, min(b, width)):
                cells[i] = "#"
        lines.append(f"{res:<{name_width}} | {''.join(cells)}")
    return "\n".join(lines)
