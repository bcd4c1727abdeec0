"""Chrome-tracing export of simulated timelines."""

import json

import numpy as np
import pytest

from repro.telemetry.export import chrome_trace_events, export_chrome_trace
from repro.simgpu.clock import SimClock


@pytest.fixture
def traced_clock():
    clock = SimClock()
    clock.add_resource("gpu")
    clock.add_resource("cpu")
    t = clock.run("cpu", 1.0, label="prep")
    clock.run("gpu", 2.0, deps=(t,), label="gemm")
    return clock


class TestEvents:
    def test_complete_events_present(self, traced_clock):
        events = chrome_trace_events(traced_clock)
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"prep", "gemm"}

    def test_timestamps_in_microseconds(self, traced_clock):
        events = chrome_trace_events(traced_clock)
        gemm = next(e for e in events if e["name"] == "gemm")
        assert gemm["ts"] == pytest.approx(1.0e6)
        assert gemm["dur"] == pytest.approx(2.0e6)

    def test_thread_metadata_per_resource(self, traced_clock):
        events = chrome_trace_events(traced_clock)
        names = {e["args"]["name"] for e in events if e["name"] == "thread_name"}
        assert names == {"gpu", "cpu"}

    def test_min_duration_filter(self, traced_clock):
        traced_clock.run("cpu", 1e-9, label="blip")
        events = chrome_trace_events(traced_clock, min_duration_s=1e-6)
        assert all(e["name"] != "blip" for e in events if e["ph"] == "X")


class TestExport:
    def test_file_is_valid_json(self, traced_clock, tmp_path):
        out = export_chrome_trace(traced_clock, tmp_path / "t.json", process_name="demo")
        payload = json.loads(out.read_text())
        assert "traceEvents" in payload
        assert any(e.get("args", {}).get("name") == "demo" for e in payload["traceEvents"])

    def test_from_real_training_run(self, tmp_path, rng):
        from conftest import make_ctx
        from repro.core.models import SecureLinearRegression
        from repro.core.training import SecureTrainer

        ctx = make_ctx(trace=True)
        model = SecureLinearRegression(ctx, 6, n_out=2)
        x = rng.normal(size=(64, 6))
        y = rng.normal(size=(64, 2))
        SecureTrainer(ctx, model, monitor_loss=False).train(x, y, epochs=1, batch_size=32)
        out = export_chrome_trace(ctx.online_clock, tmp_path / "online.json")
        payload = json.loads(out.read_text())
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert len(complete) > 10  # the protocol leaves a real footprint
