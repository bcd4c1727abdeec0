"""Scheduling runtime for the simulated clocks.

:mod:`repro.core` executes both servers in lockstep inside one process
and charges every task on a :class:`~repro.simgpu.clock.SimClock`.  This
package holds the alternative scheduler ``FrameworkConfig(runtime=
"dataflow")`` selects: :class:`DataflowClock` defers placement and fires
tasks as their dependencies resolve, and :class:`PendingTask` is the
deferred handle it returns.  Values never move between the two; only
the timing does.
"""

from repro.runtime.dataflow import DataflowClock, PendingTask

__all__ = ["DataflowClock", "PendingTask"]
