"""The telemetry subsystem: registry, spans, snapshots, exporters.

Ends with the acceptance scenario: a 2-batch secure MLP training run
whose snapshot must agree with the legacy counters (PhaseMark clocks,
CompressionStats bytes) and carry at least one kernel-time histogram for
every device in the deployment.
"""

from __future__ import annotations

import gc
import json
import math
import weakref

import numpy as np
import pytest

from conftest import make_ctx
from repro.core.config import FrameworkConfig
from repro.core.context import SecureContext
from repro.core.models import SecureMLP
from repro.core.training import SecureTrainer
from repro.serve.fleet import SecureServingFleet
from repro.simgpu.clock import SimClock
from repro.telemetry import (
    DEFAULT_BUCKETS,
    HistogramData,
    MetricRegistry,
    SeriesCache,
    SpanLog,
    Telemetry,
    chrome_trace_events,
    export_chrome_trace,
    text_report,
)
from repro.util.errors import ConfigError


class TestCounter:
    def test_inc_and_labelled_series(self):
        reg = MetricRegistry()
        c = reg.counter("comm.bytes")
        c.inc(100, channel="a<->b", src="a", dst="b")
        c.inc(50, channel="a<->b", src="b", dst="a")
        assert c.value(channel="a<->b", src="a", dst="b") == 100
        assert c.value(channel="a<->b") == 150  # partial-label sum
        assert c.value() == 150
        assert c.value(channel="other") == 0

    def test_negative_increment_rejected(self):
        c = MetricRegistry().counter("n")
        with pytest.raises(ConfigError):
            c.inc(-1)

    def test_get_or_create_returns_same_counter(self):
        reg = MetricRegistry()
        a = reg.counter("same")
        b = reg.counter("same")
        a.inc(3)
        assert b.value() == 3

    def test_kind_conflict_raises(self):
        reg = MetricRegistry()
        reg.counter("metric")
        with pytest.raises(ConfigError):
            reg.gauge("metric")


class TestNonFiniteValues:
    """nan/inf would poison a series: nan passes ``amount < 0`` and
    reads back as ``value() == nan``; a nan observation bumps ``count``
    but no bucket."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_counter_refuses_on_both_paths(self, bad):
        c = MetricRegistry().counter("comm.bytes")
        c.inc(2, op="a")
        with pytest.raises(ConfigError, match="comm.bytes"):
            c.inc(bad, op="a")
        with pytest.raises(ConfigError, match="comm.bytes"):
            c.labels(op="a").inc(bad)
        assert c.value() == 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_histogram_refuses_on_both_paths(self, bad):
        h = MetricRegistry().histogram("simgpu.kernel_seconds")
        h.observe(1e-3, kind="gemm")
        with pytest.raises(ConfigError, match="simgpu.kernel_seconds"):
            h.observe(bad, kind="gemm")
        with pytest.raises(ConfigError, match="simgpu.kernel_seconds"):
            h.labels(kind="gemm").observe(bad)
        with pytest.raises(ConfigError, match="simgpu.kernel_seconds"):
            h.labels(kind="never-observed").observe(bad)
        data = h.data()
        assert (data.count, sum(data.bucket_counts), data.total) == (1, 1, 1e-3)
        assert set(h.series()) == {(("kind", "gemm"),)}

    def test_histogram_data_refuses_nan(self):
        data = HistogramData()
        data.observe(1.0)
        with pytest.raises(ConfigError):
            data.observe(math.nan)
        assert (data.count, sum(data.bucket_counts), data.total) == (1, 1, 1.0)


class TestBoundSeries:
    def test_bound_and_labelled_incs_share_one_series(self):
        telem = Telemetry()
        c = telem.counter("comm.bytes")
        bound = c.labels(channel="a<->b", src="a", dst="b")
        bound.inc(100)
        c.inc(20, src="a", dst="b", channel="a<->b")  # label order is irrelevant
        c.inc(7, channel="a<->b", src="b", dst="a")
        assert len(c.series()) == 2
        assert bound.value() == 120
        assert c.value(channel="a<->b", src="a", dst="b") == 120
        assert c.value(channel="a<->b") == 127
        snap = telem.snapshot()
        assert snap.counter("comm.bytes", src="a") == 120
        assert snap.counter("comm.bytes") == 127

    def test_bound_histogram_and_gauge_share_their_series(self):
        reg = MetricRegistry()
        h = reg.histogram("t")
        h.labels(stage="queue").observe(1e-4)
        h.observe(2e-4, stage="queue")
        assert h.data(stage="queue").count == 2
        g = reg.gauge("depth")
        g.labels(replica="r0").set(5)
        assert g.value(replica="r0") == 5
        g.set(3, replica="r0")
        assert g.value(replica="r0") == 3

    def test_binding_creates_no_series(self):
        reg = MetricRegistry()
        reg.counter("n").labels(op="a")
        reg.histogram("t").labels(op="a")
        reg.gauge("g").labels(op="a")
        assert all(not m.series() for m in reg.metrics().values())

    def test_negative_increment_still_raises(self):
        bound = MetricRegistry().counter("n").labels(op="a")
        with pytest.raises(ConfigError, match="negative"):
            bound.inc(-1)
        assert bound.value() == 0

    def test_snapshot_does_not_move_after_more_observations(self):
        telem = Telemetry()
        bound = telem.histogram("t").labels(stage="queue")
        bound.observe(1e-4)
        telem.counter("n").labels().inc(1)
        snap = telem.snapshot()
        frozen = (snap.histogram("t").count, snap.histogram("t").bucket_counts)
        for _ in range(3):
            bound.observe(5e-3)
        telem.counter("n").labels().inc(1)
        assert (snap.histogram("t").count, snap.histogram("t").bucket_counts) == frozen
        assert snap.counter("n") == 1

    def test_a_dropped_context_is_freed_without_the_cycle_collector(self):
        # the binders a context keeps close over its counters, never over
        # the context: a reference cycle would keep every dropped
        # deployment's arrays alive until the next collection
        gc.disable()
        try:
            ctx = SecureContext.create(FrameworkConfig(seed=0))
            trainer = SecureTrainer(ctx, SecureMLP(ctx, 8, hidden=(4,), n_out=2))
            trainer.train(np.ones((4, 8)), np.ones((4, 2)), batch_size=4)
            alive = weakref.ref(ctx)
            del ctx, trainer
            assert alive() is None
        finally:
            gc.enable()

    def test_series_cache_binds_each_value_once(self):
        c = MetricRegistry().counter("serve.requests_admitted")
        binds = []
        cache = SeriesCache(lambda client: binds.append(client) or c.labels(client=client))
        for client in ("a", "b", "a", "a"):
            cache[client].inc(1)
        assert binds == ["a", "b"]
        assert c.value(client="a") == 3


class TestGauge:
    def test_set_and_read(self):
        g = MetricRegistry().gauge("phase.sim_seconds")
        g.set(1.5, clock="offline")
        g.set(2.5, clock="offline")  # overwrite, not accumulate
        assert g.value(clock="offline") == 2.5


class TestHistogram:
    def test_observe_accumulates_stats(self):
        h = MetricRegistry().histogram("t")
        for v in (1e-6, 2e-6, 3e-6):
            h.observe(v, device="gpu0", kind="gemm")
        data = h.data(device="gpu0", kind="gemm")
        assert data.count == 3
        assert data.total == pytest.approx(6e-6)
        assert data.min == pytest.approx(1e-6)
        assert data.max == pytest.approx(3e-6)
        assert data.mean == pytest.approx(2e-6)

    def test_bucket_is_the_first_bound_at_or_above_the_value(self):
        bounds = (1e-6, 1e-3, 1.0, math.inf)
        rng = np.random.default_rng(3)
        values = [*bounds[:-1], 0.0, 2e-6, 5e2, *(10.0 ** rng.uniform(-8, 2, size=50))]
        h = MetricRegistry().histogram("t", buckets=bounds)
        expected = [0] * len(bounds)
        for v in values:
            h.observe(v)
            expected[next(i for i, b in enumerate(bounds) if v <= b)] += 1
        assert h.data().bucket_counts == tuple(expected)

    def test_default_buckets_end_with_inf(self):
        assert DEFAULT_BUCKETS[-1] == math.inf
        h = MetricRegistry().histogram("t")
        h.observe(1e12)  # beyond every finite bound, lands in the inf bucket
        assert h.data().count == 1


class TestHistogramQuantile:
    def test_empty_series_is_zero(self):
        h = MetricRegistry().histogram("t")
        assert h.quantile(0.5) == 0.0
        assert h.quantile(0.99) == 0.0

    def test_single_observation_is_itself(self):
        h = MetricRegistry().histogram("t")
        h.observe(3e-4)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(3e-4)

    def test_quantiles_are_monotone_and_bounded(self):
        h = MetricRegistry().histogram("t")
        rng = np.random.default_rng(0)
        values = 10.0 ** rng.uniform(-6, -2, size=200)
        for v in values:
            h.observe(v)
        qs = [h.quantile(q) for q in (0.1, 0.5, 0.9, 0.95, 0.99)]
        assert qs == sorted(qs)
        assert values.min() <= qs[0] and qs[-1] <= values.max()

    def test_estimate_lands_in_the_right_decade(self):
        """Bucket interpolation: the estimate stays near the true quantile."""
        h = MetricRegistry().histogram("t")
        for _ in range(90):
            h.observe(5e-6)  # 90% of mass in the (1e-6, 1e-5] bucket
        for _ in range(10):
            h.observe(5e-3)
        assert 1e-6 <= h.quantile(0.5) <= 1e-5
        assert 1e-3 <= h.quantile(0.99) <= 5e-3

    def test_q0_is_min_and_q1_is_max(self):
        h = MetricRegistry().histogram("t")
        for v in (2e-6, 7e-5, 4e-4, 9e-3):
            h.observe(v)
        assert h.quantile(0.0) == pytest.approx(2e-6)
        assert h.quantile(1.0) == pytest.approx(9e-3)

    def test_all_mass_in_one_bucket_clamps_to_observed_range(self):
        # 2e-6..9e-6 all land in the (1e-6, 1e-5] bucket; interpolation
        # alone would smear estimates across the whole decade, the
        # [min, max] clamp keeps them inside what was actually seen
        h = MetricRegistry().histogram("t")
        for v in (2e-6, 3e-6, 9e-6):
            h.observe(v)
        for q in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert 2e-6 <= h.quantile(q) <= 9e-6

    def test_out_of_range_q_rejected(self):
        h = MetricRegistry().histogram("t")
        h.observe(1e-4)
        for q in (-0.1, 1.1):
            with pytest.raises(ConfigError):
                h.quantile(q)

    def test_inf_bucket_returns_observed_max(self):
        h = MetricRegistry().histogram("t", buckets=(1.0, math.inf))
        h.observe(0.5)
        h.observe(42.0)
        assert h.quantile(0.99) == pytest.approx(42.0)

    def test_labelled_series_merge(self):
        """Partial-label queries merge series (servable per-client too)."""
        h = MetricRegistry().histogram("serve.request_latency_seconds")
        h.observe(1e-4, stage="total", client="a")
        h.observe(2e-4, stage="total", client="b")
        h.observe(9.0, stage="queue")
        merged = h.data(stage="total")
        assert merged.count == 2
        assert h.quantile(1.0, stage="total") <= 2e-4 + 1e-12
        assert h.quantile(0.5, stage="total", client="a") == pytest.approx(1e-4)

    def test_rejects_out_of_range_q(self):
        h = MetricRegistry().histogram("t")
        h.observe(1.0)
        with pytest.raises(ConfigError):
            h.quantile(1.5)
        with pytest.raises(ConfigError):
            h.quantile(-0.1)


class TestSpans:
    def test_nesting_tracks_parent_and_depth(self):
        log = SpanLog()
        with log.span("outer") as outer:
            with log.span("inner") as inner:
                pass
        assert outer.depth == 0 and outer.parent is None
        assert inner.depth == 1 and inner.parent == outer.index
        assert [s.name for s in log.finished()] == ["outer", "inner"]
        assert [s.name for s in log.finished(prefix="inn")] == ["inner"]

    def test_sim_time_pinned_to_clock(self):
        clock = SimClock()
        clock.add_resource("r")
        telem = Telemetry(clocks={"online": clock})
        clock.run("r", 1.0)
        with telem.span("work", clock="online"):
            clock.run("r", 2.5)
        (span,) = telem.span_log.finished()
        assert span.sim_start == pytest.approx(1.0)
        assert span.sim_duration == pytest.approx(2.5)

    def test_unknown_clock_records_zero_sim_time(self):
        telem = Telemetry()
        with telem.span("work", clock="nope"):
            pass
        (span,) = telem.span_log.finished()
        assert span.sim_duration == 0.0


class TestSnapshotDiff:
    def test_counter_window(self):
        telem = Telemetry()
        c = telem.counter("n")
        c.inc(10, op="a")
        before = telem.snapshot()
        c.inc(5, op="a")
        c.inc(3, op="b")
        window = telem.snapshot().diff(before)
        assert window.counter("n", op="a") == 5
        assert window.counter("n", op="b") == 3
        assert telem.snapshot().counter("n") == 18  # diff leaves totals alone

    def test_histogram_window(self):
        telem = Telemetry()
        h = telem.histogram("t")
        h.observe(1.0)
        before = telem.snapshot()
        h.observe(3.0)
        window = telem.snapshot().diff(before)
        data = window.histogram("t")
        assert data.count == 1
        assert data.total == pytest.approx(3.0)

    def test_span_window_excludes_prior_spans(self):
        telem = Telemetry()
        with telem.span("early"):
            pass
        before = telem.snapshot()
        with telem.span("late"):
            pass
        window = telem.snapshot().diff(before)
        assert [s.name for s in window.spans()] == ["late"]


class TestChromeTrace:
    def _traced_telemetry(self):
        clock = SimClock()
        clock.set_tracing(True)
        clock.add_resource("gpu.s0")
        telem = Telemetry(clocks={"online": clock})
        with telem.span("batch", clock="online"):
            clock.run("gpu.s0", 2e-3, label="gemm")
        return telem

    def test_telemetry_export_schema(self):
        telem = self._traced_telemetry()
        events = chrome_trace_events(telem)
        complete = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        names = {e["name"] for e in complete}
        assert {"gemm", "batch"} <= names
        gemm = next(e for e in complete if e["name"] == "gemm")
        assert gemm["dur"] == pytest.approx(2e-3 * 1e6)  # microseconds
        # span lanes live on their own thread ids, named via metadata
        span_event = next(e for e in complete if e["name"] == "batch")
        assert span_event["tid"] >= 10_000
        assert any(e["name"] == "thread_name" for e in meta)

    def test_export_writes_valid_json(self, tmp_path):
        telem = self._traced_telemetry()
        out = export_chrome_trace(telem, tmp_path / "trace.json")
        payload = json.loads(out.read_text())
        assert "traceEvents" in payload and payload["displayTimeUnit"] == "ms"

    def test_telemetry_methods_are_the_module_exporters(self, tmp_path):
        telem = self._traced_telemetry()
        assert telem.chrome_trace_events() == chrome_trace_events(telem)
        out = telem.export_chrome_trace(tmp_path / "trace.json")
        assert json.loads(out.read_text())["traceEvents"] == chrome_trace_events(telem)

    def test_min_duration_drops_only_shorter_events(self):
        telem = self._traced_telemetry()
        clock = telem.clocks()["online"]
        clock.run("gpu.s0", 1e-6, label="blip")
        names = {e["name"] for e in telem.chrome_trace_events() if e["ph"] == "X"}
        kept = {e["name"] for e in telem.chrome_trace_events(min_duration_s=1e-3)
                if e["ph"] == "X"}  # fmt: skip
        assert "blip" in names and "blip" not in kept
        assert "gemm" in kept

    def test_clock_source_matches_legacy_surface(self):
        clock = SimClock()
        clock.set_tracing(True)
        clock.add_resource("r")
        clock.run("r", 1e-3, label="task1")
        events = chrome_trace_events(clock, process_name="demo")
        assert events[0]["args"]["name"] == "demo"
        assert any(e["name"] == "task1" for e in events)


class TestReports:
    def test_text_report_covers_sections(self):
        ctx = make_ctx()
        rng = np.random.default_rng(0)
        model = SecureMLP(ctx, 16, hidden=(8,), n_out=4)
        SecureTrainer(ctx, model, monitor_loss=False).train(
            rng.normal(size=(128, 16)), rng.normal(size=(128, 4)), batch_size=128
        )
        report = ctx.telemetry.report(title="run")
        for needle in ("phases", "communication", "device kernels", "secure ops", "spans"):
            assert needle in report

    def test_empty_report_says_so(self):
        assert "(no activity recorded)" in text_report(Telemetry().snapshot())


class TestTrainingAcceptance:
    """The ISSUE acceptance scenario: 2-batch MLP training snapshot."""

    @pytest.fixture(scope="class")
    def trained(self):
        ctx = make_ctx()
        rng = np.random.default_rng(7)
        x = rng.normal(size=(256, 784)) * 0.5
        y = rng.normal(size=(256, 10)) * 0.1
        model = SecureMLP(ctx, 784, hidden=(128,), n_out=10)
        mark = ctx.mark()
        SecureTrainer(ctx, model, monitor_loss=False).train(
            x, y, batch_size=128, max_batches=2
        )
        return ctx, mark, ctx.telemetry.snapshot()

    def test_phase_gauges_match_phasemark(self, trained):
        ctx, mark, snap = trained
        delta = ctx.since(mark)
        assert snap.gauge("phase.sim_seconds", clock="offline") == pytest.approx(
            mark.offline_s + delta.offline_s
        )
        assert snap.gauge("phase.sim_seconds", clock="online") == pytest.approx(
            mark.online_s + delta.online_s
        )

    def test_channel_bytes_match_thin_views(self, trained):
        ctx, _mark, snap = trained
        assert snap.counter(
            "comm.bytes", channel=ctx.server_channel.label
        ) == ctx.server_channel.total_bytes
        assert (
            snap.counter("comm.bytes", channel=ctx.uplinks[0].label)
            + snap.counter("comm.bytes", channel=ctx.uplinks[1].label)
        ) == ctx.uplinks[0].total_bytes + ctx.uplinks[1].total_bytes

    def test_compression_counters_match_stats(self, trained):
        ctx, _mark, snap = trained
        stats = ctx.compression_stats
        assert int(snap.counter("comm.compression.raw_bytes")) == stats.raw_bytes
        assert int(snap.counter("comm.compression.wire_bytes")) == stats.wire_bytes
        assert (
            int(snap.counter("comm.compression.dense_messages")) == stats.dense_messages
        )

    def test_every_device_has_a_kernel_histogram(self, trained):
        ctx, _mark, snap = trained
        gpu_devices = set(snap.label_values("simgpu.kernel_seconds", "device"))
        assert {"clientgpu", "s0gpu", "s1gpu"} <= gpu_devices
        for device in gpu_devices:
            assert snap.histogram("simgpu.kernel_seconds", device=device).count >= 1
        cpu_devices = set(snap.label_values("simcpu.seconds", "device"))
        assert {"client", "s0", "s1"} <= cpu_devices

    def test_batch_spans_cover_online_phase(self, trained):
        _ctx, _mark, snap = trained
        batches = snap.spans("train.batch")
        assert len(batches) == 2
        assert all(s.sim_duration > 0 for s in batches)
        sharing = snap.spans("train.share_dataset")
        assert len(sharing) == 1 and sharing[0].sim_duration > 0

    def test_triplet_counters_consistent(self, trained):
        ctx, _mark, snap = trained
        assert int(snap.counter("mpc.triplets_generated")) == ctx.triplets_issued
        assert int(snap.counter("mpc.triplets_consumed")) >= ctx.triplets_issued

    def test_op_rollups_present(self, trained):
        _ctx, _mark, snap = trained
        ops_seen = set(snap.label_values("ops.invocations", "op"))
        assert {"matmul", "elementwise_mul"} <= ops_seen
        assert "truncate" not in ops_seen  # beaver2pc rescales inside its products
        assert snap.counter("ops.online_seconds", op="matmul") > 0


class TestWarmPathsResolveNoLabels:
    """Hot paths bind their series when they are built: a warm training
    step or fleet batch never resolves a label set (``label_key``)."""

    @pytest.fixture
    def label_keys(self, monkeypatch):
        import repro.telemetry.registry as registry

        calls = []
        real = registry.label_key

        def counted(labels):
            calls.append(dict(labels))
            return real(labels)

        def arm():
            monkeypatch.setattr(registry, "label_key", counted)
            return calls

        return arm

    @pytest.mark.parametrize("backend", ["beaver2pc", "rep3"])
    def test_warm_training_step(self, backend, label_keys):
        ctx = SecureContext.create(FrameworkConfig(backend=backend, seed=0))
        trainer = SecureTrainer(ctx, SecureMLP(ctx, 32, hidden=(16,), n_out=4))
        rng = np.random.default_rng(0)
        x = 0.5 * rng.standard_normal((32, 32))
        y = np.eye(4)[rng.integers(0, 4, size=32)]
        trainer.train(x, y, batch_size=16)
        calls = label_keys()
        trainer.train(x, y, batch_size=16)
        assert calls == []

    def test_warm_fleet_batch(self, label_keys):
        fleet = SecureServingFleet(
            lambda ctx: SecureMLP(ctx, 32, hidden=(16,), n_out=4),
            replicas=2,
            config=FrameworkConfig(seed=0),
            max_batch=8,
        )
        rng = np.random.default_rng(0)

        def wave():
            for client in range(6):
                fleet.submit(f"client{client}", rng.standard_normal((1 + client % 3, 32)))
            fleet.drain()

        wave()
        wave()  # each replica's second batch is the first to reuse a static F
        calls = label_keys()
        wave()
        assert calls == []
        assert len(fleet.responses) == 18
