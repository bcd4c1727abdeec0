"""The serving layer: queue, batcher, and the multiplexing server.

Acceptance focus: many logical clients over ONE SecureContext, bounded
admission (retryable rejects, nothing shared before admission), adaptive
coalescing with pad-and-trim (no request dropped, ever — including under
party crashes), and per-request latency quantiles in telemetry.
"""

import numpy as np
import pytest

from repro.core.config import FrameworkConfig
from repro.core.context import SecureContext
from repro.core.inference import secure_predict
from repro.core.models import SecureMLP
from repro.core.tensor import SharedTensor
from repro.faults import FaultPlan, PartyCrash
from repro.faults.blame import PartyFailure
from repro.faults.chaos import unrecoverable_plan
from repro.serve import (
    AdaptiveBatcher,
    InferenceRequest,
    QueueFullError,
    Replica,
    RequestQueue,
)
from repro.util.errors import ConfigError, ServeError

N_FEATURES = 12
N_OUT = 3


def _server(*, fault_plan=None, pool_size=None, **kw):
    overrides = {}
    if fault_plan is not None:
        overrides["fault_plan"] = fault_plan
    if pool_size is not None:
        overrides["pool_size"] = pool_size
    ctx = SecureContext(FrameworkConfig.parsecureml(**overrides))
    model = SecureMLP(ctx, N_FEATURES, hidden=(6,), n_out=N_OUT)
    kw.setdefault("max_batch", 16)
    kw.setdefault("max_wait_s", 1e-3)
    return ctx, model, Replica(ctx, model, **kw)


def _shared_rows(ctx, rng, rows):
    return SharedTensor.from_plain(ctx, rng.normal(size=(rows, 4)))


class TestRequestQueue:
    def test_admission_bounds_rows(self, ctx, rng):
        q = RequestQueue(max_rows=10, telemetry=ctx.telemetry)
        q.admit(InferenceRequest("a", 1, _shared_rows(ctx, rng, 6), 0.0))
        with pytest.raises(QueueFullError) as exc:
            q.admit(InferenceRequest("b", 2, _shared_rows(ctx, rng, 5), 0.0))
        assert exc.value.retryable
        assert q.depth_rows == 6 and len(q) == 1
        snap = ctx.telemetry.snapshot()
        assert snap.counter("serve.requests_rejected", client="b") == 1
        assert snap.counter("serve.requests_admitted") == 1

    def test_pop_upto_is_fifo_and_never_splits(self, ctx, rng):
        q = RequestQueue(max_rows=100, telemetry=ctx.telemetry)
        for rid, rows in enumerate([4, 5, 8, 2]):
            q.admit(InferenceRequest("c", rid, _shared_rows(ctx, rng, rows), 0.0))
        taken = q.pop_upto(10)  # 4+5 fit; 8 would overflow and must wait
        assert [r.request_id for r in taken] == [0, 1]
        assert q.depth_rows == 10
        assert q.oldest_enqueue_t() == 0.0

    def test_requeue_front_bypasses_admission(self, ctx, rng):
        q = RequestQueue(max_rows=4, telemetry=ctx.telemetry)
        req = InferenceRequest("a", 1, _shared_rows(ctx, rng, 4), 0.0)
        q.admit(req)
        (popped,) = q.pop_upto(4)
        q.admit(InferenceRequest("b", 2, _shared_rows(ctx, rng, 4), 1.0))
        q.requeue_front(popped)  # over max_rows, but recovery must not drop it
        assert q.depth_rows == 8
        assert q.pop_upto(4)[0].request_id == 1

    def test_rejects_bad_bound(self, ctx):
        with pytest.raises(ConfigError):
            RequestQueue(max_rows=0, telemetry=ctx.telemetry)


class TestAdaptiveBatcher:
    def _queue(self, ctx, rng, rows_list, t=0.0):
        q = RequestQueue(max_rows=1000, telemetry=ctx.telemetry)
        for rid, rows in enumerate(rows_list):
            q.admit(InferenceRequest("x", rid, _shared_rows(ctx, rng, rows), t))
        return q

    def test_ready_on_full_batch(self, ctx, rng):
        b = AdaptiveBatcher(max_batch=8, max_wait_s=1.0)
        q = self._queue(ctx, rng, [5])
        assert not b.ready(q, now=0.0)
        q.admit(InferenceRequest("x", 9, _shared_rows(ctx, rng, 3), 0.0))
        assert b.ready(q, now=0.0)

    def test_ready_on_timer(self, ctx, rng):
        b = AdaptiveBatcher(max_batch=8, max_wait_s=0.5)
        q = self._queue(ctx, rng, [2])
        assert not b.ready(q, now=0.4)
        assert b.ready(q, now=0.5)
        assert b.timer_deadline(q) == 0.5

    def test_plan_pads_partial_batch(self, ctx, rng):
        b = AdaptiveBatcher(max_batch=8, max_wait_s=0.0)
        plan = b.next_plan(self._queue(ctx, rng, [3, 2]))
        assert plan.rows == 5 and plan.pad_rows == 3

    def test_demand_counts_batches(self, ctx, rng):
        b = AdaptiveBatcher(max_batch=8, max_wait_s=0.0)
        assert b.demand(self._queue(ctx, rng, [8, 8, 1])) == 3
        assert b.demand(self._queue(ctx, rng, [])) == 0


class TestSubmitValidation:
    def test_rejects_non_2d(self, rng):
        _, _, server = _server()
        with pytest.raises(ConfigError):
            server.submit("a", rng.normal(size=(3,)))

    def test_rejects_empty_request(self):
        _, _, server = _server()
        with pytest.raises(ServeError):
            server.submit("a", np.zeros((0, N_FEATURES)))

    def test_rejects_oversized_request(self, rng):
        _, _, server = _server(max_batch=8)
        with pytest.raises(ServeError) as exc:
            server.submit("a", rng.normal(size=(9, N_FEATURES)))
        assert not exc.value.retryable

    def test_rejects_wrong_width(self, rng):
        _, _, server = _server()
        with pytest.raises(ConfigError):
            server.submit("a", rng.normal(size=(2, N_FEATURES + 1)))

    def test_queue_full_rejects_before_sharing(self, rng):
        ctx, _, server = _server(max_batch=4, queue_rows=4)
        server.submit("a", rng.normal(size=(4, N_FEATURES)))
        mark = ctx.mark()
        with pytest.raises(QueueFullError):
            server.submit("b", rng.normal(size=(1, N_FEATURES)))
        # the rejected request paid no sharing cost at all
        assert ctx.since(mark).offline_s == 0.0
        assert server.report().rejected_requests == 1


class TestServing:
    def test_four_clients_one_context(self, rng):
        """The acceptance scenario: >=4 concurrent clients, one context."""
        ctx, model, server = _server(max_batch=16)
        x_by_rid = {}
        for client, rows in [("a", 5), ("b", 7), ("c", 3), ("d", 11), ("a", 2)]:
            x = rng.normal(size=(rows, N_FEATURES)) * 0.25
            x_by_rid[server.submit(client, x)] = (client, x)
        server.drain()
        rep = server.report()
        assert rep.served_requests == 5
        assert rep.served_rows == 28
        assert len({r.client_id for r in rep.responses}) == 4
        assert len(server.queue) == 0
        w = [la.weight.decode() for la in model.layers if hasattr(la, "weight")]
        b = [la.bias.decode() for la in model.layers if hasattr(la, "bias")]
        for resp in rep.responses:
            client, x = x_by_rid[resp.request_id]
            assert resp.client_id == client
            assert resp.predictions.shape == (x.shape[0], N_OUT)
            ref = np.maximum(x @ w[0] + b[0], 0.0) @ w[1] + b[1]
            assert np.allclose(resp.predictions, ref, atol=2e-2)
        # latency spans are coherent and quantiles populated
        for resp in rep.responses:
            assert resp.latency_s == pytest.approx(resp.queue_wait_s + resp.service_s)
            assert resp.latency_s > 0.0
        assert 0.0 < rep.latency["p50"] <= rep.latency["p95"] <= rep.latency["p99"]

    def test_coalescing_fills_batches(self, rng):
        """Small requests ride together; padding only on the last batch."""
        ctx, _, server = _server(max_batch=16)
        for i in range(6):  # 6 x 4 rows = 24 -> one full batch + one of 8
            server.submit(f"c{i % 3}", rng.normal(size=(4, N_FEATURES)))
        server.drain()
        rep = server.report()
        assert rep.batches == 2
        assert rep.served_rows == 24 and rep.padded_rows == 8
        assert rep.mean_batch_fill == pytest.approx(24 / 32)
        first = [r for r in rep.responses if r.batch_index == 0]
        assert sum(r.rows for r in first) == 16

    def test_pump_leaves_unripe_partial_queued(self, rng):
        ctx, _, server = _server(max_batch=16, max_wait_s=5e-3)
        server.submit("a", rng.normal(size=(3, N_FEATURES)))
        assert server.pump() == 0  # neither full nor timed out
        assert len(server.queue) == 1
        assert server.drain() == 1  # drain idles the clock through the timer
        rep = server.report()
        assert rep.timer_waits >= 1
        assert rep.served_requests == 1 and rep.padded_rows == 13
        # the timer wait shows up as queue latency on the online clock
        assert rep.responses[0].queue_wait_s >= 5e-3

    def test_provisioning_is_pool_backed(self, rng):
        ctx, _, server = _server(max_batch=8, pool_size=64)
        server.submit("a", rng.normal(size=(8, N_FEATURES)))
        server.drain()
        rep = server.report()
        assert rep.provisioned_triplets > 0
        snap = ctx.telemetry.snapshot()
        assert snap.counter("mpc.pool.hits") > 0

    def test_empty_server_report(self):
        _, _, server = _server()
        rep = server.report()
        assert rep.served_requests == 0 and rep.batches == 0
        assert rep.latency == {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        assert rep.mean_batch_fill == 0.0
        assert rep.response_for("nobody", 1) is None

    def test_matches_secure_predict(self, rng):
        """One big client request == the plain driver, bit for bit.

        Identically-seeded deployments, identical sharing order: the
        served path and ``secure_predict`` run the same ops in the same
        order, so their predictions must agree exactly.
        """
        x = np.random.default_rng(5).normal(size=(16, N_FEATURES)) * 0.25
        ctx_a, model_a, server = _server(max_batch=16)
        server.submit("solo", x)
        server.drain()
        served = server.report().responses[0].predictions
        ctx_b = SecureContext(FrameworkConfig.parsecureml())
        model_b = SecureMLP(ctx_b, N_FEATURES, hidden=(6,), n_out=N_OUT)
        direct = secure_predict(ctx_b, model_b, x, batch_size=16).predictions
        np.testing.assert_array_equal(served, direct)


class TestServingUnderFaults:
    def _run(self, fault_plan, retries=2):
        ctx, model, server = _server(
            fault_plan=fault_plan, max_batch=8, request_retries=retries,
        )
        rng = np.random.default_rng(9)
        for client, rows in [("a", 5), ("b", 3), ("c", 8), ("d", 2), ("a", 6)]:
            server.submit(client, rng.normal(size=(rows, N_FEATURES)) * 0.25)
        server.drain()
        return server.report()

    def test_party_crash_loses_nothing(self):
        """A server crash mid-serve degrades p99, never drops a request."""
        clean = self._run(None)
        plan = FaultPlan(seed=7, crashes=(PartyCrash("server1", at_step=2),))
        chaos = self._run(plan)
        assert chaos.served_requests == clean.served_requests == 5
        assert chaos.retried_batches >= 1
        assert chaos.retry_online_s > 0.0
        # recovery is exact: same submissions, bit-identical predictions
        for rc, rx in zip(clean.responses, chaos.responses):
            assert (rc.client_id, rc.request_id) == (rx.client_id, rx.request_id)
            np.testing.assert_array_equal(rc.predictions, rx.predictions)
        # the crash is visible where it should be: the tail latency
        assert chaos.latency["p99"] > clean.latency["p99"]
        assert clean.latency["p99"] > 0.0

    def test_exhausted_retries_requeue_not_drop(self, rng):
        """Identifiable abort surfaces, but admitted requests survive."""
        ctx, model, server = _server(
            fault_plan=unrecoverable_plan(), max_batch=8, request_retries=1,
        )
        server.submit("a", rng.normal(size=(5, N_FEATURES)))
        server.submit("b", rng.normal(size=(3, N_FEATURES)))
        with pytest.raises(PartyFailure):
            server.drain()
        assert len(server.queue) == 2  # requeued at the head, FIFO preserved
        assert server.queue.depth_rows == 8
        assert server.report().served_requests == 0


class TestTelemetrySurface:
    def test_snapshot_has_serving_metrics(self, rng):
        ctx, _, server = _server(max_batch=8)
        for client in ("a", "b"):
            server.submit(client, rng.normal(size=(4, N_FEATURES)))
        server.drain()
        server.report()  # pins the quantile gauges
        snap = ctx.telemetry.snapshot()
        assert snap.counter("serve.requests_admitted") == 2
        assert snap.counter("serve.requests_served") == 2
        assert snap.counter("serve.rows_served") == 8
        assert snap.counter("serve.batches") == 1
        assert snap.gauge("serve.queue_depth_rows") == 0
        assert snap.histogram("serve.request_latency_seconds", stage="total").count == 2
        assert snap.gauge("serve.latency_quantile_seconds", q="p99") > 0.0
        assert snap.histogram("serve.batch_fill").count == 1

    def test_facade_exports(self):
        import repro

        assert repro.Replica is Replica
        assert repro.QueueFullError is QueueFullError
        assert repro.serve.AdaptiveBatcher is AdaptiveBatcher
