"""Intra-node orchestration: adaptive placement and the double pipeline.

* :mod:`repro.pipeline.profiler` — profiling-guided adaptive GPU
  utilisation (paper Section 4.2): prices the plan a call site will run
  on both devices and places it where it finishes sooner, memoising
  decisions per (plan, shape, resident slots).  Its plans are step
  graphs, and the double pipeline (Section 4.3) is their edges:
  pipeline 1 overlaps PCIe transfers with the sub-kernels of the Eq. 8
  GEMM (Fig. 5, the ``beaver2pc`` GPU plan); pipeline 2's
  cross-layer overlap is expressed through the dependency edges the
  training loop passes in (Fig. 6);
* :mod:`repro.pipeline.timeline` — trace analysis: busy/overlap
  accounting and an ASCII Gantt renderer used by examples and tests.
"""

from repro.pipeline.profiler import StepProfiler, PlacementDecision
from repro.pipeline.timeline import TimelineSummary, summarize, render_gantt

__all__ = [
    "StepProfiler",
    "PlacementDecision",
    "TimelineSummary",
    "summarize",
    "render_gantt",
]
