"""One serving replica: a `SecureContext` behind the replica protocol.

A :class:`Replica` is the unit a serving fleet scales in: one secure
deployment (its own server pair, dealer and clocks) wrapped in
the replica protocol the :class:`~repro.serve.fleet.SecureServingFleet`
speaks:

* :meth:`submit` — admission-controlled, secret-shares the rows at the
  door (an offline-clock cost); a full queue raises the retryable
  :class:`~repro.util.errors.QueueFullError` before any sharing cost.
* :meth:`poll` — completed :class:`InferenceResponse`\\ s since the last
  poll, each exactly once (the fleet's collection path).
* :meth:`drain` — serve everything queued, idling the online clock
  through partial-batch timers (:meth:`pump` serves only what is ready).
* :meth:`report` — served counts, padding, retries and latency
  quantiles; ``queue.depth_rows`` and :attr:`crashed_party` are the
  queue depth and crash state.

The serving mechanics are unchanged from the original single-server
layer: a bounded :class:`~repro.serve.queue.RequestQueue`, an
:class:`~repro.serve.batcher.AdaptiveBatcher` coalescing fixed-shape
plans (pad-and-trim, so ragged tails are served, never dropped), and
:func:`~repro.core.inference.run_secure_batch` with the fault-retry /
blame machinery underneath.  What is new is the crash surface: when a
batch exhausts its retry budget the requests return to the queue head,
the replica remembers the blamed party (:attr:`crashed_party`), and the
fleet can :meth:`take_pending` the admitted requests back and
:meth:`respawn` the replica through the :mod:`repro.faults` recovery
path — so a crashed replica drains, never drops.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.core.inference import run_secure_batch
from repro.core.tensor import SharedTensor
from repro.faults.blame import PartyFailure
from repro.faults.recovery import respawn_party
from repro.serve.batcher import AdaptiveBatcher, BatchPlan
from repro.serve.queue import InferenceRequest, RequestQueue
from repro.telemetry import maybe_span
from repro.telemetry.registry import SeriesCache
from repro.util.errors import ConfigError, ServeError

_QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


@dataclass(frozen=True)
class InferenceResponse:
    """One served request: predictions plus its latency spans."""

    client_id: str
    request_id: int
    predictions: np.ndarray  # (rows, n_out), padding already trimmed
    enqueue_t: float
    dequeue_t: float
    done_t: float
    batch_index: int
    retries: int  # retries of the batch this request rode in

    @property
    def rows(self) -> int:
        return self.predictions.shape[0]

    @property
    def queue_wait_s(self) -> float:
        return self.dequeue_t - self.enqueue_t

    @property
    def service_s(self) -> float:
        return self.done_t - self.dequeue_t

    @property
    def latency_s(self) -> float:
        return self.done_t - self.enqueue_t


@dataclass
class ServeReport:
    """Aggregate accounting for one replica's lifetime (so far)."""

    responses: list[InferenceResponse] = field(default_factory=list)
    batches: int = 0
    served_requests: int = 0
    served_rows: int = 0
    padded_rows: int = 0
    retried_batches: int = 0
    retry_online_s: float = 0.0
    rejected_requests: int = 0
    timer_waits: int = 0
    offline_s: float = 0.0
    online_s: float = 0.0
    latency: dict = field(default_factory=dict)  # {"p50": s, "p95": s, "p99": s}

    @property
    def mean_batch_fill(self) -> float:
        """Served rows per batch slot (1.0 = no padding)."""
        total = self.served_rows + self.padded_rows
        return self.served_rows / total if total else 0.0

    def response_for(self, client_id: str, request_id: int) -> InferenceResponse | None:
        for resp in self.responses:
            if resp.client_id == client_id and resp.request_id == request_id:
                return resp
        return None


class Replica:
    """Queue + batcher + the fixed-shape secure forward path, named.

    Parameters
    ----------
    ctx, model:
        The replica's own :class:`~repro.core.context.SecureContext`
        and the secure model deployed on it.
    name:
        Stable identity in the fleet's router (and in reports).
    max_batch / max_wait_s:
        The :class:`AdaptiveBatcher` knobs — fixed batch shape and the
        partial-batch timer.
    queue_rows:
        Admission bound in rows (default ``8 * max_batch``).
    request_retries:
        Per-batch retry budget handed to
        :func:`~repro.core.inference.run_secure_batch`.
    audit:
        Attach a transcript recorder to the context so the replica's
        wire view can be replayed/audited (:mod:`repro.audit`).
    """

    def __init__(
        self,
        ctx,
        model,
        *,
        name: str = "replica0",
        max_batch: int = 64,
        max_wait_s: float = 1e-3,
        queue_rows: int | None = None,
        request_retries: int = 2,
        audit: bool = False,
    ):
        self.ctx = ctx
        self.model = model
        self.name = str(name)
        self.request_retries = request_retries
        # Deployment audit hook: with ``audit`` on (or a recorder already
        # attached to the context) every served request's wire traffic is
        # recorded, and wire_audit() chi-squares each server's view.
        if audit and getattr(ctx, "recorder", None) is None:
            ctx.attach_recorder()
        self.recorder = getattr(ctx, "recorder", None)
        self.batcher = AdaptiveBatcher(max_batch=max_batch, max_wait_s=max_wait_s)
        self.queue = RequestQueue(
            max_rows=queue_rows if queue_rows is not None else 8 * max_batch,
            telemetry=ctx.telemetry,
        )
        self.crashed_party: str | None = None
        self._rid = itertools.count(1)
        self._responses: list[InferenceResponse] = []
        self._poll_cursor = 0
        self._batches = 0
        self._padded_rows = 0
        self._retried_batches = 0
        self._retry_online_s = 0.0
        self._timer_waits = 0
        self._start = ctx.mark()
        self._in_features = next(
            (
                int(layer.in_features)
                for layer in getattr(model, "layers", [])
                if getattr(layer, "in_features", None) is not None
            ),
            None,
        )
        t = ctx.telemetry
        served = t.counter("serve.requests_served", "requests answered, by client")
        self._served = SeriesCache(lambda client: served.labels(client=client))
        self._rows_served = t.counter("serve.rows_served", "input rows answered").labels()
        self._batches_run = t.counter("serve.batches", "coalesced secure batches run").labels()
        self._pad_counter = t.counter(
            "serve.padded_rows", "zero rows appended to reach the fixed batch shape"
        ).labels()
        self._timer_counter = t.counter(
            "serve.batch_timer_waits", "partial batches cut by the max_wait timer"
        ).labels()
        latency = self._latency = t.histogram(
            "serve.request_latency_seconds",
            "per-request online-clock spans, by stage (queue/service/total)",
        )
        self._queue_latency = latency.labels(stage="queue")
        self._service_latency = latency.labels(stage="service")
        self._total_latency = SeriesCache(
            lambda client: latency.labels(stage="total", client=client)
        )
        self._fill = t.histogram(
            "serve.batch_fill", "served rows per batch slot (1.0 = no padding)"
        ).labels()

    # -- client side ------------------------------------------------------------

    def submit(self, client_id: str, x: np.ndarray) -> int:
        """Share and enqueue one request; returns its request id.

        Raises the retryable :class:`QueueFullError` when admission
        control refuses (before any sharing cost is paid), and
        :class:`ServeError` for requests that can never be served
        (empty, or wider than ``max_batch`` rows).
        """
        x = self._validate(client_id, x)
        # reject before paying the share/upload cost
        self.queue.check_admission(client_id, x.shape[0])
        return self._admit(client_id, x)

    def force_admit(self, client_id: str, x: np.ndarray) -> int:
        """Admit bypassing the row bound — the router's recovery path.

        A request re-routed off a crashed replica was already admitted
        into the fleet once and must not be lost to backpressure on its
        new home; like :meth:`RequestQueue.requeue_front`, this skips
        admission control only.
        """
        x = self._validate(client_id, x)
        return self._admit(client_id, x, forced=True)

    def _validate(self, client_id: str, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ConfigError(f"submit expects 2-D rows, got shape {x.shape}")
        if x.shape[0] < 1:
            raise ServeError(f"request from {client_id!r} has no rows")
        if x.shape[0] > self.batcher.max_batch:
            raise ServeError(
                f"request of {x.shape[0]} rows exceeds max_batch={self.batcher.max_batch}; "
                "split it client-side"
            )
        if self._in_features is not None and x.shape[1] != self._in_features:
            raise ConfigError(
                f"request has {x.shape[1]} features, model expects {self._in_features}"
            )
        return x

    def _admit(self, client_id: str, x: np.ndarray, *, forced: bool = False) -> int:
        request_id = next(self._rid)
        with maybe_span(self.ctx.telemetry, "serve.share_request", clock="offline",
                        client=client_id):
            shared = SharedTensor.from_plain(
                self.ctx, x, label=f"serve/{client_id}/{request_id}"
            )
        request = InferenceRequest(
            client_id=client_id,
            request_id=request_id,
            x=shared,
            enqueue_t=self.ctx.online_clock.now(),
        )
        if forced:
            self.queue.admit_forced(request)
        else:
            self.queue.admit(request)
        return request_id

    # -- server side ------------------------------------------------------------

    def pump(self) -> int:
        """Serve every batch that is ready *now*; returns batches run.

        Partial batches whose timer has not fired stay queued — call
        :meth:`drain` (or ``pump`` again later) to flush them.
        """
        ran = 0
        while self.batcher.ready(self.queue, self.ctx.online_clock.now()):
            plan = self.batcher.next_plan(self.queue)
            if plan is None:  # pragma: no cover - ready() implies a plan
                break
            self._serve_plan(plan)
            ran += 1
        return ran

    def drain(self) -> int:
        """Serve everything queued, idling the clock through batch timers."""
        ran = self.pump()
        while len(self.queue):
            self._wait_for_timer()
            ran += self.pump()
        return ran

    def poll(self) -> list[InferenceResponse]:
        """Responses completed since the last poll, each exactly once."""
        new = self._responses[self._poll_cursor:]
        self._poll_cursor = len(self._responses)
        return list(new)

    # -- fleet recovery surface --------------------------------------------------

    def take_pending(self) -> list[InferenceRequest]:
        """Remove and return every queued request (router recovery path).

        After a crash the admitted requests drain back through the
        router: their plaintexts are re-shared onto a healthy replica,
        so the shares held here (bound to this context) are dropped.
        """
        return self.queue.take_all()

    def respawn(self) -> None:
        """Restart the blamed party through the faults recovery path.

        No-op when the replica never crashed.  Afterwards the replica is
        healthy again and the router may route new requests to it.
        """
        if self.crashed_party is None:
            return
        party, self.crashed_party = self.crashed_party, None
        with maybe_span(
            self.ctx.telemetry, "serve.replica_respawn", clock="online", party=party
        ):
            respawn_party(self.ctx, party)

    def report(self) -> ServeReport:
        """Aggregate accounting; also pins p50/p95/p99 gauges for snapshots."""
        latency = {
            name: self._latency.quantile(q, stage="total") for name, q in _QUANTILES
        }
        gauge = self.ctx.telemetry.gauge(
            "serve.latency_quantile_seconds", "request latency quantiles at last report"
        )
        for name, _q in _QUANTILES:
            gauge.set(latency[name], q=name)
        delta = self.ctx.since(self._start)
        rejected = self.ctx.telemetry.counter("serve.requests_rejected").value()
        return ServeReport(
            responses=list(self._responses),
            batches=self._batches,
            served_requests=len(self._responses),
            served_rows=sum(r.rows for r in self._responses),
            padded_rows=self._padded_rows,
            retried_batches=self._retried_batches,
            retry_online_s=self._retry_online_s,
            rejected_requests=int(rejected),
            timer_waits=self._timer_waits,
            offline_s=delta.offline_s,
            online_s=delta.online_s,
            latency=latency,
        )

    def wire_audit(self, **kwargs):
        """Chi-square the recorded wire view of this replica's traffic.

        Requires the replica to have been built with ``audit=True`` (or
        a recorder attached to the context beforehand); see
        :func:`repro.audit.audit_transcript` for the knobs.
        """
        from repro.audit.wire import audit_transcript

        if self.recorder is None:
            raise ServeError(
                "replica has no transcript recorder; construct with audit=True"
            )
        kwargs.setdefault("telemetry", self.ctx.telemetry)
        return audit_transcript(self.recorder.transcript(), **kwargs)

    # -- internals --------------------------------------------------------------

    def _wait_for_timer(self) -> None:
        """Idle the online clock until the head request's timer fires."""
        deadline = self.batcher.timer_deadline(self.queue)
        if deadline is None:
            return
        now = self.ctx.online_clock.now()
        if deadline > now:
            self.ctx.online_clock.advance_all(deadline)
        self._timer_waits += 1
        self._timer_counter.inc(1)

    def _assemble(self, plan: BatchPlan) -> SharedTensor:
        """Concatenate request shares and zero-pad to the fixed shape."""
        parts = [[r.x.shares[p] for r in plan.requests] for p in range(self.ctx.n_parties)]
        if plan.pad_rows:
            fill = np.zeros((plan.pad_rows, parts[0][0].shape[1]), dtype=parts[0][0].dtype)
            for party_parts in parts:
                party_parts.append(fill)
        return SharedTensor(
            ctx=self.ctx,
            shares=tuple(
                np.ascontiguousarray(np.concatenate(party_parts, axis=0))
                for party_parts in parts
            ),
            kind=plan.requests[0].x.kind,
        )

    def _serve_plan(self, plan: BatchPlan) -> None:
        # a batch starts no earlier than its latest request was admitted
        self.ctx.online_clock.advance_all(max(r.enqueue_t for r in plan.requests))
        dequeue_t = self.ctx.online_clock.now()
        for req in plan.requests:
            req.dequeue_t = dequeue_t
        batch = self._assemble(plan)
        try:
            outcome = run_secure_batch(
                self.ctx,
                self.model,
                batch,
                batch_label=f"serve{self._batches}",
                max_request_retries=self.request_retries,
            )
        except PartyFailure as failure:
            # Retry budget exhausted: identifiable abort, but the
            # requests are NOT lost — they return to the queue head so
            # the router can drain them back (or a recovered standalone
            # deployment can re-serve them).
            self.crashed_party = failure.party
            for req in reversed(plan.requests):
                self.queue.requeue_front(req)
            raise
        done_t = self.ctx.online_clock.now()
        lo = 0
        for req in plan.requests:
            pred = outcome.outputs[lo : lo + req.rows]
            lo += req.rows
            resp = InferenceResponse(
                client_id=req.client_id,
                request_id=req.request_id,
                predictions=pred,
                enqueue_t=req.enqueue_t,
                dequeue_t=dequeue_t,
                done_t=done_t,
                batch_index=self._batches,
                retries=outcome.retries,
            )
            self._responses.append(resp)
            self._served[req.client_id].inc(1)
            self._rows_served.inc(req.rows)
            self._queue_latency.observe(resp.queue_wait_s)
            self._service_latency.observe(resp.service_s)
            self._total_latency[req.client_id].observe(resp.latency_s)
        self._batches += 1
        self._batches_run.inc(1)
        self._padded_rows += plan.pad_rows
        if plan.pad_rows:
            self._pad_counter.inc(plan.pad_rows)
        self._fill.observe(plan.rows / plan.max_batch)
        if outcome.retries:
            self._retried_batches += 1
        self._retry_online_s += outcome.retry_online_s
