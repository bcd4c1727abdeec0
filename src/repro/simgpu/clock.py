"""Resource-timeline simulated clock.

The execution model: the system is a set of named *resources* (a CPU, a
GPU compute stream, the two PCIe DMA engines, a NIC link, ...), each of
which executes one task at a time.  A task may additionally depend on
other tasks (from any resource).  It is placed when it is submitted, at
the earliest time at or after its dependencies' finishes that lies in an
idle gap of its resource long enough for its whole duration; where no
gap holds it, it is appended:

    start = max(resource free time, finish of every dependency)

and it finishes at ``start + duration``.  Placed tasks never move, so no
task starts later than under plain submission order, and independent
work (the next batch, a share already on the host) runs while earlier
work waits on the wire.  :meth:`SimClock.advance_all` is the one
barrier: nothing is placed before the time it synchronises to.  This is
the standard analytic model for CUDA stream/DMA overlap and is what
makes the paper's pipeline claims measurable: scheduling the same work
with different dependency edges yields different makespans.

The clock also keeps a trace (resource, label, start, finish) that the
pipeline tests and the timeline tooling inspect.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from repro.util.errors import ConfigError


@dataclass(frozen=True)
class Task:
    """A completed (scheduled) unit of work on one resource."""

    resource: str
    label: str
    start: float
    finish: float

    @property
    def duration(self) -> float:
        return self.finish - self.start


class SimClock:
    """Shared simulated clock over a set of serial resources."""

    def __init__(self):
        self._free_at: dict[str, float] = {}
        # per resource, the idle gaps before its free time: parallel
        # lists of gap starts and ends, in time order
        self._gaps: dict[str, tuple[list[float], list[float]]] = {}
        self.trace: list[Task] = []
        self._trace_enabled = True

    # -- resource management -------------------------------------------------

    def add_resource(self, name: str) -> None:
        """Register a resource; idempotent."""
        self._free_at.setdefault(name, 0.0)
        self._gaps.setdefault(name, ([], []))

    def resources(self) -> list[str]:
        return sorted(self._free_at)

    def free_at(self, resource: str) -> float:
        """When the last task placed on ``resource`` finishes."""
        try:
            return self._free_at[resource]
        except KeyError:
            raise ConfigError(f"unknown resource {resource!r}; add_resource it first") from None

    # -- scheduling ----------------------------------------------------------

    def run(
        self,
        resource: str,
        duration: float,
        deps: list[Task] | tuple[Task, ...] = (),
        label: str = "",
    ) -> Task:
        """Schedule ``duration`` seconds of work on ``resource``.

        Returns the :class:`Task`, whose ``finish`` other work can depend
        on.  Zero-duration tasks are legal and useful as join points.
        """
        if duration < 0:
            raise ConfigError(f"task duration must be >= 0, got {duration}")
        if resource not in self._free_at:
            raise ConfigError(f"unknown resource {resource!r}; add_resource it first")
        ready = 0.0
        for dep in deps:
            if dep is not None and dep.finish > ready:
                ready = dep.finish
        free = self._free_at[resource]
        start = self._fill_gap(resource, ready, duration) if ready < free else None
        if start is None:  # no gap holds it: append, leaving [free, start) idle
            start = max(free, ready)
            if start > free:
                los, his = self._gaps[resource]
                los.append(free)
                his.append(start)
            self._free_at[resource] = start + duration
        task = Task(resource=resource, label=label, start=start, finish=start + duration)
        if self._trace_enabled:
            self.trace.append(task)
        return task

    def _fill_gap(self, resource: str, ready: float, duration: float) -> float | None:
        """The earliest start >= ``ready`` inside an idle gap of
        ``resource`` that holds ``duration`` (the gap shrinks to what is
        left on either side), or None where no gap does."""
        los, his = self._gaps[resource]
        # gaps are disjoint, so their ends are sorted too: skip every gap
        # that ends before the task could finish in it
        for i in range(bisect_left(his, ready + duration), len(los)):
            start = max(los[i], ready)
            if start + duration <= his[i]:
                if duration > 0:
                    left, right = (los[i], start), (start + duration, his[i])
                    rest = [(a, b) for a, b in (left, right) if b > a]
                    los[i : i + 1], his[i : i + 1] = [a for a, _ in rest], [b for _, b in rest]
                return start
        return None

    def probe(
        self, resource: str, duration: float, ready: float = 0.0, taken=()
    ) -> float:
        """Where :meth:`run` would start ``duration`` seconds on
        ``resource`` once its dependencies finish at ``ready``, had the
        ``(start, finish)`` tasks ``taken`` (each of positive duration,
        as a plan's steps are) been run there first; read-only.

        The same gap rule: the earliest start at or after ``ready`` in an
        idle stretch — a gap, or the time from the free time on — that
        holds the whole duration, with the ``taken`` tasks cut out of it.
        """
        if resource not in self._free_at:
            raise ConfigError(f"unknown resource {resource!r}; add_resource it first")
        los, his = self._gaps[resource]
        free = self._free_at[resource]
        cuts = sorted(taken) if taken else ()
        n = len(los)
        for i in range(bisect_left(his, ready + duration), n + 1):
            lo, hi = (los[i], his[i]) if i < n else (free, float("inf"))
            for cut_lo, cut_hi in cuts:
                if lo < cut_hi and cut_lo < hi:  # the idle piece before the cut
                    start = max(lo, ready)
                    if lo < cut_lo and start + duration <= cut_lo:
                        return start
                    lo = cut_hi
            start = max(lo, ready)
            if lo < hi and start + duration <= hi:
                return start
        raise AssertionError("unreachable: the last stretch is unbounded")  # pragma: no cover

    def join(self, deps: list[Task], resource: str | None = None, label: str = "join") -> Task:
        """A zero-duration task that completes when all ``deps`` have.

        When ``resource`` is None the join is virtual (does not occupy
        any resource); the returned task carries the max finish time.
        An empty (or all-None) ``deps`` list joins on *everything*
        currently scheduled: the finish defaults to ``now()``, never to
        a point before the resources involved go free.
        """
        finish = max((d.finish for d in deps if d is not None), default=self.now())
        if resource is None:
            return Task(resource="<virtual>", label=label, start=finish, finish=finish)
        return self.run(resource, 0.0, deps=deps, label=label)

    # -- time queries ---------------------------------------------------------

    def now(self) -> float:
        """Current makespan: the latest point any resource is busy until."""
        return max(self._free_at.values(), default=0.0)

    def advance_all(self, to_time: float | None = None) -> float:
        """Synchronise every resource to ``to_time`` (default: ``now()``).

        The one barrier, at phase boundaries and driver calls: every idle
        gap before ``t`` closes, so nothing placed afterwards starts
        before ``t`` — the online phase cannot start before the offline
        phase has fully drained everywhere, nor a batch before its
        requests exist.
        """
        t = self.now() if to_time is None else float(to_time)
        for name, (los, his) in self._gaps.items():
            cut = bisect_right(his, t)
            del los[:cut], his[:cut]
            if los and los[0] < t:
                los[0] = t
            if self._free_at[name] < t:
                self._free_at[name] = t
        return t

    # -- tracing ---------------------------------------------------------------

    def set_tracing(self, enabled: bool) -> None:
        """Toggle trace recording (long runs can disable it to save memory)."""
        self._trace_enabled = bool(enabled)

    def trace_for(self, resource: str) -> list[Task]:
        return [t for t in self.trace if t.resource == resource]

    def busy_time(self, resource: str, since: float = 0.0) -> float:
        """Total busy seconds recorded on a resource after ``since``."""
        return sum(
            min(t.finish, self._free_at[resource]) - max(t.start, since)
            for t in self.trace
            if t.resource == resource and t.finish > since
        )
