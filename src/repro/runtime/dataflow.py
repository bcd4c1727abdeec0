"""Event-driven dataflow scheduling over the :class:`SimClock`.

The lockstep cost model places every task the moment it is submitted:
``start = max(resource free, dep finishes)`` in *program order*.  That
means overlap only exists where a driver hand-codes it (pipeline 1's
chunk interleave, the double pipeline's reconstruct thread).  This
module is the VIFF-style alternative: every ``run()`` returns a
*deferred* handle (:class:`PendingTask`), nothing is placed until a
flush point, and a ready-queue scheduler then fires tasks as their
operands resolve — so inter-layer, inter-batch and
offline-refill-under-online overlap fall out of the dependency edges
instead of the submission order.

Two invariants make the mode safe to flip on:

* **Values never move.**  Share arithmetic stays eagerly evaluated in
  program order (RNG streams, compressor state and transcripts are
  untouched); only the *timing* of tasks is deferred.  The conformance
  oracle pins predictions and per-link content digests bit-identical
  to lockstep.
* **Makespan never regresses.**  Provisional times mirror the lockstep
  placement exactly, and :meth:`DataflowClock.finalize` commits the
  earliest-start-time (EST) schedule only when its makespan beats
  program order — list scheduling is anomaly-prone (Graham 1969), so
  the lockstep plan is the guaranteed floor.

Mid-run time reads (``now()``, ``free_at``, span deltas, per-batch
marks) report the *provisional* program-order frontier: they are
lockstep-identical estimates until a flush point re-times the window.
Flush points are the driver ends (:meth:`SecureTrainer.train`,
:func:`secure_predict` via ``SecureContext.finalize_runtime``),
``advance_all`` (phase barriers, serving drains) and telemetry
snapshots.
"""

from __future__ import annotations

import heapq
from collections import defaultdict

from repro.simgpu.clock import SimClock, Task
from repro.util.errors import ConfigError

__all__ = ["DataflowClock", "PendingTask"]


class PendingTask:
    """A deferred task handle: scheduled work that has not been placed yet.

    Quacks like :class:`~repro.simgpu.clock.Task` (``start`` /
    ``finish`` / ``duration``), so protocol code can thread it through
    dependency lists unchanged.  Until :meth:`DataflowClock.finalize`
    places it, the times are the *provisional* program-order placement
    (exactly what the lockstep clock would have produced); afterwards
    they are the committed schedule's.
    """

    __slots__ = ("resource", "label", "deps", "seq", "real", "_duration", "_prov_start")

    def __init__(self, resource, label, duration, deps, seq, prov_start):
        self.resource = resource  # None for a virtual join node
        self.label = label
        self.deps = deps
        self.seq = seq
        self.real = None  # the placed Task, set by finalize()
        self._duration = duration
        self._prov_start = prov_start

    @property
    def start(self) -> float:
        return self.real.start if self.real is not None else self._prov_start

    @property
    def finish(self) -> float:
        if self.real is not None:
            return self.real.finish
        return self._prov_start + self._duration

    @property
    def duration(self) -> float:
        return self._duration

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "placed" if self.real is not None else "pending"
        return (
            f"PendingTask({self.resource!r}, {self.label!r}, "
            f"[{self.start:.3g}, {self.finish:.3g}], {state})"
        )


class DataflowClock:
    """A :class:`SimClock` facade that defers placement to a scheduler.

    Drop-in for the lockstep clock: same resource registry, same
    ``run``/``join``/``now``/``advance_all``/tracing surface.  ``run``
    records the task into the current *window* and returns a
    :class:`PendingTask` carrying the provisional lockstep placement;
    :meth:`finalize` closes the window by replaying it onto the real
    clock in ready-queue order.  The trace therefore holds only placed
    tasks, with their committed times.
    """

    def __init__(self):
        self._real = SimClock()
        self._prov_free: dict[str, float] = {}
        self._pending: list[PendingTask] = []
        self._seq = 0

    # -- resource management -------------------------------------------------

    def add_resource(self, name: str) -> None:
        self._real.add_resource(name)
        self._prov_free.setdefault(name, 0.0)

    def resources(self) -> list[str]:
        return self._real.resources()

    def free_at(self, resource: str) -> float:
        """Provisional idle time of ``resource`` (program-order frontier)."""
        try:
            return self._prov_free[resource]
        except KeyError:
            raise ConfigError(f"unknown resource {resource!r}; add_resource it first") from None

    # -- scheduling ----------------------------------------------------------

    def run(
        self,
        resource: str,
        duration: float,
        deps: list | tuple = (),
        label: str = "",
    ) -> PendingTask:
        """Defer ``duration`` seconds of work on ``resource``.

        Returns a :class:`PendingTask` usable anywhere a ``Task`` is;
        its provisional times equal the lockstep placement.
        """
        if duration < 0:
            raise ConfigError(f"task duration must be >= 0, got {duration}")
        if resource not in self._prov_free:
            raise ConfigError(f"unknown resource {resource!r}; add_resource it first")
        start = self._prov_free[resource]
        live = tuple(d for d in deps if d is not None)
        for dep in live:
            if dep.finish > start:
                start = dep.finish
        node = PendingTask(resource, label, duration, live, self._seq, start)
        self._seq += 1
        self._prov_free[resource] = node.finish
        self._pending.append(node)
        return node

    def join(self, deps: list, resource: str | None = None, label: str = "join"):
        """Zero-duration barrier over ``deps`` (see :meth:`SimClock.join`).

        A virtual join whose deps are all placed resolves immediately to
        a plain :class:`Task`; one over pending deps must itself stay
        pending, so its finish is re-timed with them at finalize.
        """
        if resource is not None:
            return self.run(resource, 0.0, deps=deps, label=label)
        live = tuple(d for d in deps if d is not None)
        finish = max((d.finish for d in live), default=self.now())
        unresolved = any(isinstance(d, PendingTask) and d.real is None for d in live)
        if not unresolved:
            return Task(resource="<virtual>", label=label, start=finish, finish=finish)
        node = PendingTask(None, label, 0.0, live, self._seq, finish)
        self._seq += 1
        self._pending.append(node)
        return node

    # -- time queries ---------------------------------------------------------

    def now(self) -> float:
        """Provisional makespan (program-order frontier over all resources)."""
        return max(self._prov_free.values(), default=0.0)

    def advance_all(self, to_time: float | None = None) -> float:
        """Finalize the open window, then synchronise every resource."""
        self.finalize()
        t = self._real.advance_all(to_time)
        for name in self._prov_free:
            self._prov_free[name] = self._real.free_at(name)
        return t

    # -- window scheduling -----------------------------------------------------

    @property
    def pending_count(self) -> int:
        """Deferred tasks in the open window (introspection/tests)."""
        return len(self._pending)

    def finalize(self) -> None:
        """Close the window: place every pending task on the real clock.

        Tasks are committed in earliest-start-time ready-queue order —
        a task fires once its operands have resolved and its resource
        frees up — unless that schedule's makespan loses to program
        order (a Graham anomaly), in which case the lockstep placement
        is kept.  Either way the finalized makespan is <= the
        provisional (lockstep) one.
        """
        pending = self._pending
        if not pending:
            return
        self._pending = []
        for node in self._plan(pending):
            deps = tuple(d.real if isinstance(d, PendingTask) else d for d in node.deps)
            if node.resource is None:
                finish = max((d.finish for d in deps), default=self._real.now())
                node.real = Task(
                    resource="<virtual>", label=node.label, start=finish, finish=finish
                )
            else:
                node.real = self._real.run(
                    node.resource, node.duration, deps=deps, label=node.label
                )
            # A placed node answers from ``real``; dropping its edges stops
            # a long-lived handle from keeping every earlier window alive.
            node.deps = ()
        for name in self._prov_free:
            self._prov_free[name] = self._real.free_at(name)

    def _plan(self, pending: list[PendingTask]) -> list[PendingTask]:
        """Pick the commit order for a window: EST schedule or program order."""
        free = {r: self._real.free_at(r) for r in self._real.resources()}
        indeg: dict[int, int] = {}
        ready: dict[int, float] = {}  # max finish over resolved deps
        children: dict[int, list[PendingTask]] = defaultdict(list)
        by_seq: dict[int, PendingTask] = {}
        for node in pending:
            by_seq[node.seq] = node
            unresolved = 0
            ready_at = 0.0
            for dep in node.deps:
                if isinstance(dep, PendingTask) and dep.real is None:
                    unresolved += 1
                    children[id(dep)].append(node)
                elif dep.finish > ready_at:
                    ready_at = dep.finish
            indeg[id(node)] = unresolved
            ready[id(node)] = ready_at

        def est(node: PendingTask) -> float:
            if node.resource is None:
                return ready[id(node)]
            return max(ready[id(node)], free[node.resource])

        heap = [(est(n), n.seq) for n in pending if indeg[id(n)] == 0]
        heapq.heapify(heap)
        order: list[PendingTask] = []
        finishes: dict[int, float] = {}
        while heap:
            when, seq = heapq.heappop(heap)
            node = by_seq[seq]
            current = est(node)
            if current > when:  # resource got busier since the push; re-queue
                heapq.heappush(heap, (current, seq))
                continue
            order.append(node)
            finish = current + node.duration
            finishes[id(node)] = finish
            if node.resource is not None:
                free[node.resource] = finish
            for child in children[id(node)]:
                if finish > ready[id(child)]:
                    ready[id(child)] = finish
                indeg[id(child)] -= 1
                if indeg[id(child)] == 0:
                    heapq.heappush(heap, (est(child), child.seq))
        if len(order) != len(pending):  # unreachable unless the graph is cyclic
            return pending
        est_makespan = max(
            max(free.values(), default=0.0),
            max(finishes.values(), default=0.0),
        )
        prov_makespan = max(self._prov_free.values(), default=0.0)
        if est_makespan > prov_makespan:
            return pending  # anomaly: the hand-ordered plan is the floor
        return order

    # -- tracing ---------------------------------------------------------------

    @property
    def trace(self) -> list[Task]:
        return self._real.trace

    def set_tracing(self, enabled: bool) -> None:
        self._real.set_tracing(enabled)

    def trace_for(self, resource: str) -> list[Task]:
        return self._real.trace_for(resource)

    def busy_time(self, resource: str, since: float = 0.0) -> float:
        return self._real.busy_time(resource, since)
