"""Integration tests for the attention and recsys workloads.

Three angles on the two new registry models:

* **golden replay** — inference conformance runs must replay
  bit-identically against the committed reference transcripts
  (``tests/data/*_infer_transcript.json``, regenerated by
  ``scripts/gen_workload_transcripts.py``): every message's blake2b
  payload digest, size, ordering and routing is pinned per backend;
* **serving** — both models run through the serving layer and the
  replica fleet like any paper model (ragged requests, no drops);
* **compression** — the recsys wire story quantified: delta compression
  must strictly shrink the inter-server byte volume of an inference run
  vs the same run with compression off (the static embedding table is
  opened once either way).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.audit import ConformanceCase, run_conformance_case
from repro.audit.transcript import Transcript
from repro.bench.harness import run_fleet
from repro.bench.workloads import build_secure_model, load_workload
from repro.core.config import FrameworkConfig
from repro.core.context import SecureContext
from repro.core.inference import secure_predict
from pathlib import Path

DATA_DIR = Path(__file__).parent / "data"

WORKLOADS = ("attention", "recsys")
BACKENDS = ("beaver2pc", "rep3")


class TestGoldenReplay:
    """The workloads must not have moved a single wire byte."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("model", WORKLOADS)
    def test_replays_bit_identically_against_reference(self, model, backend):
        ref = Transcript.load(DATA_DIR / f"{model}_{backend}_infer_transcript.json")
        result = run_conformance_case(
            ConformanceCase(model=model, axis="baseline", backend=backend),
            audit=True, capture_payloads=True,
        )
        assert result.agreed
        assert ref.diff(result.transcript) is None


class TestAttentionOnStackedMatmuls:
    """Attention against its plain twin, and what it puts on the wire:
    per-sample products open ``b*s*d`` elements an operand, never the
    ``b*s*s*d`` pair grid the Hadamard expansion used to."""

    B, S, D = 8, 4, 8

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("train", (False, True), ids=("forward", "two-steps"))
    def test_agrees_with_plain_attention(self, backend, train):
        result = run_conformance_case(
            ConformanceCase(model="attention", axis="baseline", backend=backend, train=train),
            audit=False,
        )
        assert result.agreed, result.describe()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_no_pair_grid_crosses_a_server_link(self, backend, monkeypatch):
        from repro.comm.wire import iter_arrays
        from repro.core.models import SecureAttention
        from repro.core.training import SecureTrainer

        b, s, d = self.B, self.S, self.D
        ctx = SecureContext.create(FrameworkConfig.parsecureml(backend=backend))
        sent = []
        record = ctx.record_wire

        def spy(src, dst, tag, payload=None, **kw):
            if src.startswith("server"):
                sent.extend((tag, a.shape) for a in iter_arrays(payload))
            record(src, dst, tag, payload, **kw)

        monkeypatch.setattr(ctx, "record_wire", spy)
        ctx.attach_recorder()
        rng = np.random.default_rng(0)
        x = 0.5 * rng.standard_normal((2 * b, s * d))
        y = np.eye(3)[rng.integers(0, 3, size=2 * b)]
        SecureTrainer(ctx, SecureAttention(ctx, s, d)).train(x, y, batch_size=b)
        assert sent
        assert (b * s * s, d) not in {shape for _tag, shape in sent}
        # the widest thing sent is the fused [dQ|dK|dV] operand of dWqkv
        tag, widest = max(sent, key=lambda item: int(np.prod(item[1])))
        assert int(np.prod(widest)) == b * s * 3 * d < b * s * s * d, (tag, widest)


class TestServing:
    """Both workloads ride the serving layer and the replica fleet."""

    @pytest.mark.parametrize("model", WORKLOADS)
    def test_serving_layer_handles_workload(self, model):
        from repro.serve import Replica

        x, _y, spec = load_workload(model, "SYNTHETIC", n_batches=2, batch_size=8, seed=0)
        ctx = SecureContext.create(FrameworkConfig.parsecureml())
        server = Replica(ctx, build_secure_model(ctx, spec), max_batch=8, queue_rows=16)
        for client, (lo, hi) in enumerate(((0, 3), (3, 11), (11, 16))):
            server.submit(f"client{client}", x[lo:hi])
        server.drain()
        rep = server.report()
        assert rep.served_rows == 16
        assert rep.batches >= 2
        assert rep.latency["p50"] > 0

    @pytest.mark.parametrize("model", WORKLOADS)
    def test_fleet_serves_workload_without_drops(self, model):
        cfg = FrameworkConfig.parsecureml()
        rep = run_fleet(
            model, "SYNTHETIC", cfg, replicas=2, clients=3, batch_size=8, seed=0
        )
        assert rep.dropped_requests == 0
        assert rep.served_rows > 0


class TestRecsysCompression:
    """What §4.4's stable masks keep off the recsys wire, asserted at the
    comm ledger: the saving is the table's ``F`` opened once, not the
    CSR codec."""

    @staticmethod
    def _infer_bytes(**overrides) -> tuple[int, int, int]:
        cfg = FrameworkConfig.parsecureml(**overrides)
        x, _, spec = load_workload("recsys", "SYNTHETIC", n_batches=3, batch_size=16)
        ctx = SecureContext.create(cfg)
        model = build_secure_model(ctx, spec)
        secure_predict(ctx, model, x, batch_size=16)
        snap = ctx.telemetry.snapshot()
        total = sum(
            int(snap.counter("comm.bytes", channel=link.label))
            for link in ctx.server_links.values()
        )
        return (
            total,
            int(snap.counter("comm.compression.raw_bytes")),
            int(snap.counter("comm.compression.wire_bytes")),
        )

    def test_stable_masks_shrink_recsys_inference_traffic(self):
        total, raw, wire = self._infer_bytes()
        # The compressor never fires here: batch to batch the remaining
        # streams change in more elements than the sparsity threshold
        # allows, so compression on and off are byte-equal.
        assert wire == raw
        assert self._infer_bytes(compression=False) == (total, raw, wire)
        # Against single-use masks (nothing cached, nothing compressed)
        # the default config sends less: each weight's F crosses once.
        fresh_total, fresh_raw, fresh_wire = self._infer_bytes(fresh_triplets=True)
        assert fresh_wire == fresh_raw
        assert total < fresh_total


class TestWorkloadAccuracy:
    """Trained secure workloads actually learn their synthetic tasks."""

    @pytest.mark.parametrize("model", WORKLOADS)
    def test_training_reduces_loss(self, model):
        from repro.core.training import SecureTrainer

        cfg = FrameworkConfig.parsecureml()
        x, y, spec = load_workload(model, "SYNTHETIC", n_batches=4, batch_size=16)
        ctx = SecureContext.create(cfg)
        m = build_secure_model(ctx, spec)
        trainer = SecureTrainer(ctx, m, lr=0.125, monitor_loss=True)
        report = trainer.train(x, y, epochs=2, batch_size=16)
        losses = report.losses
        assert losses, "trainer recorded no losses"
        first = np.mean(losses[: len(losses) // 2])
        last = np.mean(losses[len(losses) // 2 :])
        assert last < first, f"loss did not fall: {first:.4f} -> {last:.4f}"
