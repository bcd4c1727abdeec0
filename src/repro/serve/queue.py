"""Bounded admission queue for the secure inference service.

The queue is the backpressure boundary: clients submit
already-secret-shared requests, admission control enforces a bounded
depth (in *rows*, the unit the batcher coalesces), and a full queue
rejects with the retryable :class:`~repro.util.errors.QueueFullError` —
nothing is enqueued, no offline material is consumed, and the client can
back off and resubmit.  Everything behind the queue (batching, padding,
retries) is the server's problem; a request that *is* admitted is never
dropped.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.core.tensor import SharedTensor
from repro.telemetry.registry import MetricRegistry, SeriesCache
from repro.util.errors import ConfigError, QueueFullError


@dataclass
class InferenceRequest:
    """One logical client's admitted query: shared rows plus arrival time.

    ``x`` is the secret-shared input (shared at submit time, on the
    offline clock, exactly like a dataset share); ``enqueue_t`` is the
    online-clock time of admission, the start of the request's latency
    span.
    """

    client_id: str
    request_id: int
    x: SharedTensor
    enqueue_t: float

    @property
    def rows(self) -> int:
        return self.x.shape[0]

    # filled in by the server as the request moves through its spans
    dequeue_t: float = field(default=0.0, compare=False)


class RequestQueue:
    """FIFO of admitted requests with row-bounded admission control."""

    def __init__(self, *, max_rows: int, telemetry=None):
        if max_rows < 1:
            raise ConfigError(f"queue max_rows must be >= 1, got {max_rows}")
        self.max_rows = int(max_rows)
        self._queue: deque[InferenceRequest] = deque()
        self._depth_rows = 0
        registry = telemetry.registry if telemetry is not None else MetricRegistry()
        admitted = registry.counter(
            "serve.requests_admitted", "requests accepted into the serving queue"
        )
        rejected = registry.counter(
            "serve.requests_rejected", "requests refused by admission control (retryable)"
        )
        self._admitted = SeriesCache(lambda client: admitted.labels(client=client))
        self._rejected = SeriesCache(lambda client: rejected.labels(client=client))
        self._depth_gauge = registry.gauge(
            "serve.queue_depth_rows", "input rows currently queued"
        ).labels()

    # -- admission --------------------------------------------------------------

    def check_admission(self, client_id: str, rows: int) -> None:
        """Raise :class:`QueueFullError` if ``rows`` would not fit.

        Called by the server *before* the request's sharing cost is
        paid, so a rejected client loses nothing but the round trip.
        """
        if self._depth_rows + rows > self.max_rows:
            self._rejected[client_id].inc(1)
            raise QueueFullError(
                f"queue full: {self._depth_rows}/{self.max_rows} rows queued, "
                f"request from {client_id!r} needs {rows}; back off and resubmit"
            )

    def admit(self, request: InferenceRequest) -> None:
        """Enqueue or raise :class:`QueueFullError` (retryable, no side effects)."""
        self.check_admission(request.client_id, request.rows)
        self._queue.append(request)
        self._depth_rows += request.rows
        self._admitted[request.client_id].inc(1)
        self._depth_gauge.set(self._depth_rows)

    def requeue_front(self, request: InferenceRequest) -> None:
        """Return an already-admitted request to the queue head.

        Recovery path only (a batch that exhausted its retry budget):
        bypasses admission control — the request was already admitted
        once and must not be lost to backpressure.
        """
        self._queue.appendleft(request)
        self._depth_rows += request.rows
        self._depth_gauge.set(self._depth_rows)

    def admit_forced(self, request: InferenceRequest) -> None:
        """Enqueue at the tail bypassing the row bound.

        Recovery path only (a request re-routed off a crashed replica):
        the request was already admitted into the fleet once and must
        not be lost to backpressure on its new home.
        """
        self._queue.append(request)
        self._depth_rows += request.rows
        self._admitted[request.client_id].inc(1)
        self._depth_gauge.set(self._depth_rows)

    def take_all(self) -> list[InferenceRequest]:
        """Remove and return every queued request (crash-drain path)."""
        taken = list(self._queue)
        self._queue.clear()
        self._depth_rows = 0
        self._depth_gauge.set(0)
        return taken

    # -- consumption (batcher side) ---------------------------------------------

    def pop_upto(self, max_rows: int) -> list[InferenceRequest]:
        """Pop whole requests FIFO while they fit in ``max_rows``.

        Requests are never split: the head request always fits because
        admission (via the server) caps request size at the batch size.
        """
        taken: list[InferenceRequest] = []
        rows = 0
        while self._queue and rows + self._queue[0].rows <= max_rows:
            req = self._queue.popleft()
            rows += req.rows
            taken.append(req)
        self._depth_rows -= rows
        self._depth_gauge.set(self._depth_rows)
        return taken

    # -- introspection ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def depth_rows(self) -> int:
        return self._depth_rows

    def oldest_enqueue_t(self) -> float | None:
        """Admission time of the head request (None when empty)."""
        return self._queue[0].enqueue_t if self._queue else None
