"""Adaptive request coalescing on the simulated clock.

The batcher turns queued requests into fixed-shape batch plans under two
knobs, the classic serving trade-off:

* ``max_batch`` — the fixed batch shape every plan is padded to (the
  shape label-cached offline material is keyed on);
* ``max_wait_s`` — how long the head request may age on the online
  clock before a partial batch is cut anyway.

A batch is *ready* when a full batch of rows is queued, or the oldest
request has waited out the timer.  The batcher never owns the clock: it
only reads ``now`` and reports the deadline; the server decides whether
to idle the clock forward (``drain``) or only serve what is ready
(``pump``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serve.queue import InferenceRequest, RequestQueue
from repro.util.errors import ConfigError


@dataclass(frozen=True)
class BatchPlan:
    """One coalesced batch: the requests it serves and its padding."""

    requests: tuple[InferenceRequest, ...]
    max_batch: int

    @property
    def rows(self) -> int:
        return sum(r.rows for r in self.requests)

    @property
    def pad_rows(self) -> int:
        return self.max_batch - self.rows


class AdaptiveBatcher:
    """Coalesce queued requests up to ``max_batch`` rows / ``max_wait_s``."""

    def __init__(self, *, max_batch: int, max_wait_s: float):
        if max_batch < 1:
            raise ConfigError(f"batcher max_batch must be >= 1, got {max_batch}")
        if max_wait_s < 0:
            raise ConfigError(f"batcher max_wait_s must be >= 0, got {max_wait_s}")
        self.max_batch = int(max_batch)
        self.max_wait_s = float(max_wait_s)

    def ready(self, queue: RequestQueue, now: float) -> bool:
        """Is a batch worth cutting right now?"""
        if not len(queue):
            return False
        if queue.depth_rows >= self.max_batch:
            return True
        oldest = queue.oldest_enqueue_t()
        # Same arithmetic as timer_deadline(): comparing ``now`` against
        # ``oldest + max_wait_s`` (rather than ``now - oldest`` against
        # ``max_wait_s``) keeps the two agreeing under float rounding —
        # otherwise a clock advanced exactly to the deadline can appear
        # not-yet-fired and the server spins re-arming the same timer.
        return oldest is not None and now >= oldest + self.max_wait_s

    def timer_deadline(self, queue: RequestQueue) -> float | None:
        """Online-clock time at which the head request's timer fires."""
        oldest = queue.oldest_enqueue_t()
        return None if oldest is None else oldest + self.max_wait_s

    def next_plan(self, queue: RequestQueue) -> BatchPlan | None:
        """Cut one batch off the queue head (None when empty)."""
        requests = queue.pop_upto(self.max_batch)
        if not requests:
            return None
        return BatchPlan(requests=tuple(requests), max_batch=self.max_batch)
