"""Batched offline provisioning: triplet pool, fused dealer GEMMs, and
the ring out= fast paths they build on (static-operand reuse has its
own file, test_mask_reuse.py)."""

import numpy as np
import pytest
from conftest import pool_then_dense

from repro.core.config import FrameworkConfig
from repro.core.context import SecureContext
from repro.core.inference import secure_predict
from repro.core.attention import SecureAttention
from repro.core.models import (
    SecureCNN,
    SecureLinearRegression,
    SecureLogisticRegression,
    SecureMLP,
    SecureRNN,
    SecureSVM,
)
from repro.core.recsys import SecureRecsys
from repro.core.resnet import SecureResNet
from repro.core.ops import secure_matmul
from repro.core.tensor import SharedTensor
from repro.core.training import SecureTrainer
from repro.fixedpoint.ring import ring_add, ring_matmul, ring_matmul_batched, ring_mul, ring_sub
from repro.mpc.pool import TripletPool, TripletRequest, hadamard_stream, matmul_stream
from repro.mpc.shares import reconstruct
from repro.util.errors import ConfigError, ProtocolError, ShapeError


def _cfg(**kw):
    return FrameworkConfig.parsecureml(**kw)


def _train_weights(cfg, *, batches=3, seed=0):
    ctx = SecureContext(cfg)
    model = SecureMLP(ctx, 48, hidden=(24, 12), n_out=4)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(192, 48))
    y = rng.normal(size=(192, 4))
    report = SecureTrainer(ctx, model, lr=0.03125).train(
        x, y, batch_size=64, max_batches=batches
    )
    flat = np.concatenate([p.decode().ravel() for p in model.parameters()])
    return ctx, report, flat


# ---------------------------------------------------------------- ring fast paths


class TestRingOutParameter:
    @pytest.mark.parametrize("op", [ring_add, ring_sub, ring_mul])
    def test_out_matches_fresh_allocation(self, op):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 2**64, size=(7, 5), dtype=np.uint64)
        b = rng.integers(0, 2**64, size=(7, 5), dtype=np.uint64)
        expected = op(a, b)
        buf = np.empty_like(a)
        got = op(a, b, out=buf)
        assert got is buf
        np.testing.assert_array_equal(got, expected)

    def test_in_place_accumulation(self):
        rng = np.random.default_rng(4)
        a = rng.integers(0, 2**64, size=(4, 4), dtype=np.uint64)
        b = rng.integers(0, 2**64, size=(4, 4), dtype=np.uint64)
        expected = ring_add(a, b)
        got = ring_add(a, b, out=a)
        assert got is a
        np.testing.assert_array_equal(got, expected)


class TestRingMatmulBatched:
    def test_matches_stacked_singles(self):
        rng = np.random.default_rng(5)
        a = rng.integers(0, 2**64, size=(4, 3, 6), dtype=np.uint64)
        b = rng.integers(0, 2**64, size=(4, 6, 2), dtype=np.uint64)
        got = ring_matmul_batched(a, b)
        expected = np.stack([ring_matmul(a[i], b[i]) for i in range(4)])
        np.testing.assert_array_equal(got, expected)

    def test_zero_batch(self):
        a = np.empty((0, 3, 4), dtype=np.uint64)
        b = np.empty((0, 4, 2), dtype=np.uint64)
        assert ring_matmul_batched(a, b).shape == (0, 3, 2)

    def test_rejects_mismatched_stacks(self):
        a = np.zeros((2, 3, 4), dtype=np.uint64)
        with pytest.raises(ShapeError, match=r"\(2, 3, 4\).*\(3, 4, 2\)"):
            ring_matmul_batched(a, np.zeros((3, 4, 2), dtype=np.uint64))
        with pytest.raises(ShapeError, match=r"\(2, 3, 4\).*\(2, 5, 2\)"):
            ring_matmul_batched(a, np.zeros((2, 5, 2), dtype=np.uint64))
        with pytest.raises(ShapeError, match=r"a must be a 3-D stack.*\(3, 4\)"):
            ring_matmul_batched(a[0], np.zeros((2, 4, 2), dtype=np.uint64))


# ------------------------------------------------------------------- request API


class TestTripletRequests:
    def test_matmul_stream_validates_shapes(self):
        req = matmul_stream((3, 4), (4, 2))
        assert req.kind == "matrix" and req.shapes == ((3, 4), (4, 2))
        with pytest.raises(ShapeError):
            matmul_stream((3, 4), (5, 2))

    def test_matmul_stream_accepts_stacks_of_equal_depth(self):
        req = matmul_stream((8, 3, 4), (8, 4, 2))
        assert req.kind == "matrix" and req.shapes == ((8, 3, 4), (8, 4, 2))
        for bad in (((8, 3, 4), (7, 4, 2)), ((8, 3, 4), (4, 2)), ((2, 8, 3, 4), (2, 8, 4, 2))):
            with pytest.raises(ShapeError):
                matmul_stream(*bad)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            TripletRequest(kind="cubic", shapes=((2, 2),))

    def test_pool_rejects_short_generator(self):
        pool = TripletPool(
            lambda sa, sb, n: [], lambda s, n: [], max_batch=4
        )
        with pytest.raises(ConfigError):
            pool.provision([matmul_stream((2, 2), (2, 2))])


# --------------------------------------------------------- fused batch generation


class TestBatchedGeneration:
    def test_pooled_matrix_triplets_are_valid_beaver_triples(self):
        ctx = SecureContext(_cfg(pool_size=4))
        triplets = ctx._gen_matrix_triplet_batch((3, 5), (5, 2), 4)
        assert len(triplets) == 4
        for trip in triplets:
            u = reconstruct(trip.u[0], trip.u[1])
            v = reconstruct(trip.v[0], trip.v[1])
            z = reconstruct(trip.z[0], trip.z[1])
            np.testing.assert_array_equal(z, ring_matmul(u, v))
        # independent draws, not one triplet repeated
        assert not np.array_equal(triplets[0].u[0], triplets[1].u[0])

    def test_pooled_elementwise_triplets_are_valid(self):
        ctx = SecureContext(_cfg(pool_size=4))
        triplets = ctx._gen_elementwise_triplet_batch((6, 3), 3)
        assert len(triplets) == 3
        for trip in triplets:
            u = reconstruct(trip.u[0], trip.u[1])
            v = reconstruct(trip.v[0], trip.v[1])
            z = reconstruct(trip.z[0], trip.z[1])
            np.testing.assert_array_equal(z, ring_mul(u, v))

    def test_refill_chunks_respect_max_batch(self):
        ctx = SecureContext(_cfg(pool_size=2))
        banked = ctx.triplet_pool.provision([matmul_stream((2, 3), (3, 2))] * 5)
        assert banked == 5
        reg = ctx.telemetry.registry
        assert reg.counter("mpc.pool.refills", "").value(kind="matrix") == 3
        assert ctx.triplet_pool.stock() == 5


# ----------------------------------------------------------- pool in the protocol


class TestPoolConsumption:
    def test_training_hits_pool_exactly(self):
        ctx, _, _ = _train_weights(_cfg(pool_size=8))
        reg = ctx.telemetry.registry
        assert reg.counter("mpc.pool.misses", "").value() == 0
        # one hit per op-stream label; the plan leaves nothing stranded
        assert reg.counter("mpc.pool.hits", "").value() > 0
        assert ctx.triplet_pool.stock() == 0

    @pytest.mark.parametrize(
        "build, in_width, n_out",
        [
            (lambda ctx: SecureMLP(ctx, 32, hidden=(16,), n_out=4), 32, 4),
            (lambda ctx: SecureCNN(ctx, (8, 8, 1), conv_channels=2, hidden=8, n_out=4), 64, 4),
            (lambda ctx: SecureLogisticRegression(ctx, 16), 16, 1),
            (lambda ctx: SecureSVM(ctx, 16), 16, 1),
            (lambda ctx: SecureRNN(ctx, 3, 8, hidden=8, n_out=4), 24, 4),
            (lambda ctx: SecureLinearRegression(ctx, 16, n_out=2), 16, 2),
            (lambda ctx: SecureAttention(ctx, 3, 4, n_out=3), 12, 3),
            (lambda ctx: SecureRecsys(ctx, 12, 6, n_out=3), 12, 3),
            (lambda ctx: SecureResNet(ctx, (9, 9, 1), channels=2, n_out=3), 81, 3),
            (pool_then_dense, 16, 3),
        ],
        ids=[
            "mlp", "cnn", "logreg", "svm", "rnn",
            "linreg", "attention", "recsys", "resnet", "pool-dense",
        ],
    )
    def test_offline_plan_is_exact_per_model(self, build, in_width, n_out):
        """provision(offline_plan) covers one step with no miss, no surplus."""
        ctx = SecureContext(_cfg(pool_size=16))
        model = build(ctx)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(16, in_width))
        y = rng.normal(size=(16, n_out))
        if isinstance(model, SecureSVM):
            y = np.sign(y) + (y == 0)
        SecureTrainer(ctx, model, lr=0.03125).train(x, y, batch_size=16, max_batches=1)
        reg = ctx.telemetry.registry
        assert reg.counter("mpc.pool.misses", "").value() == 0
        assert ctx.triplet_pool.stock() == 0

    def test_attention_consumes_only_pooled_triplets(self):
        """Stacked streams bank and hit like flat ones: a refill of
        ``count`` stacks is one deeper batched GEMM, nothing is dealt
        synchronously, and every banked stack is taken by its stream."""
        ctx = SecureContext(_cfg(pool_size=16))
        model = SecureAttention(ctx, 3, 4, n_out=3)
        assert ctx.provision_for(model, 16) == len(model.offline_plan(16))
        scores = ((16, 3, 4), (16, 4, 3))  # qk and dA
        assert ctx.triplet_pool.stock_for("matrix", scores) == 2
        rng = np.random.default_rng(0)
        SecureTrainer(ctx, model, lr=0.03125).train(
            rng.normal(size=(16, 12)), rng.normal(size=(16, 3)), batch_size=16
        )
        generated = ctx.telemetry.registry.counter("mpc.triplets_generated", "")
        assert generated.value() == generated.value(source="pool") > 0
        assert ctx._matrix_triplets["attn/qk"].shape_a == (16, 3, 4)

    def test_exhausted_pool_falls_back_to_synchronous_generation(self):
        ctx = SecureContext(_cfg(pool_size=4))
        # no provisioning: every stream misses and generates on demand
        a = SharedTensor.from_plain(ctx, np.eye(4), label="a")
        b = SharedTensor.from_plain(ctx, np.eye(4) * 2.0, label="b")
        out = secure_matmul(a, b, label="fallback")
        np.testing.assert_allclose(out.decode(), np.eye(4) * 2.0, atol=1e-3)
        reg = ctx.telemetry.registry
        assert reg.counter("mpc.pool.misses", "").value(kind="matrix") == 1
        assert reg.counter("mpc.pool.hits", "").value() == 0

    def test_fresh_triplets_bypass_pool(self):
        ctx = SecureContext(_cfg(pool_size=4, fresh_triplets=True))
        ctx.triplet_pool.provision([matmul_stream((4, 4), (4, 4))])
        stock_before = ctx.triplet_pool.stock()
        a = SharedTensor.from_plain(ctx, np.eye(4), label="a")
        b = SharedTensor.from_plain(ctx, np.eye(4), label="b")
        secure_matmul(a, b, label="fresh-op")
        secure_matmul(a, b, label="fresh-op")  # same label: regenerated, not pooled
        reg = ctx.telemetry.registry
        assert ctx.triplet_pool.stock() == stock_before
        assert reg.counter("mpc.pool.hits", "").value() == 0
        assert reg.counter("mpc.pool.misses", "").value() == 0

    def test_provision_for_is_a_noop_without_pool_or_plan(self):
        ctx = SecureContext(_cfg())  # pool_size=0
        model = SecureMLP(ctx, 8, hidden=(4,), n_out=2)
        assert ctx.provision_for(model, 4) == 0
        ctx_fresh = SecureContext(_cfg(pool_size=4, fresh_triplets=True))
        model_fresh = SecureMLP(ctx_fresh, 8, hidden=(4,), n_out=2)
        assert ctx_fresh.provision_for(model_fresh, 4) == 0
        ctx_pooled = SecureContext(_cfg(pool_size=4))
        assert ctx_pooled.provision_for(object(), 4) == 0  # no offline_plan


# --------------------------------------------------------- consumption guard


class TestDoubleConsumeGuard:
    def test_second_consume_in_one_batch_names_the_stream(self):
        ctx = SecureContext(_cfg())
        ctx.begin_batch()
        triplet = ctx.get_matrix_triplet("mlp0/fwd", (4, 4), (4, 4))
        share = triplet.share_for(0)
        share.mark_consumed()
        again = ctx.get_matrix_triplet("mlp0/fwd", (4, 4), (4, 4))
        with pytest.raises(ProtocolError, match="mlp0/fwd"):
            again.share_for(0).mark_consumed()

    def test_new_batch_resets_the_guard(self):
        ctx = SecureContext(_cfg())
        ctx.begin_batch()
        ctx.get_matrix_triplet("op", (4, 4), (4, 4)).share_for(0).mark_consumed()
        ctx.begin_batch()
        ctx.get_matrix_triplet("op", (4, 4), (4, 4)).share_for(0).mark_consumed()

    def test_no_epoch_keeps_legacy_fresh_shares(self):
        ctx = SecureContext(_cfg())  # no begin_batch() call
        trip = ctx.get_matrix_triplet("op", (4, 4), (4, 4))
        trip.share_for(0).mark_consumed()
        trip2 = ctx.get_matrix_triplet("op", (4, 4), (4, 4))
        trip2.share_for(0).mark_consumed()  # must not raise


# ------------------------------------------------------------ zero-size GEMMs


class TestZeroSizeGemm:
    def test_zero_dim_placement_does_not_crash(self):
        ctx = SecureContext(_cfg())
        decision = ctx.profiler.place_gemm_batched(0, 4, 4, 4)
        assert decision.placement in ("cpu", "gpu")
        decision = ctx.profiler.place_gemm_batched(2, 0, 4, 4)
        assert decision.placement in ("cpu", "gpu")

    def test_empty_secure_matmul(self):
        ctx = SecureContext(_cfg())
        a = SharedTensor.from_plain(ctx, np.zeros((2, 0)), label="a")
        b = SharedTensor.from_plain(ctx, np.zeros((0, 3)), label="b")
        out = secure_matmul(a, b, label="empty")
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out.decode(), np.zeros((2, 3)), atol=1e-6)


# -------------------------------------------------------------- defaults intact


class TestAblationDefaults:
    def test_defaults_reproduce_legacy_weights(self):
        """pool_size=0 is the default, per-op dealer path."""
        _, _, a = _train_weights(_cfg())
        _, _, b = _train_weights(_cfg(pool_size=0))
        np.testing.assert_array_equal(a, b)

    def test_pooled_run_converges_like_baseline(self):
        """Training losses agree; "pooling never costs more simulated
        offline time" is held on a run with no linked streams
        (forward-only ``secure_predict``).  It no longer holds for
        training: the unpooled dealer deals a value's second product on
        the mask the first one opened and so draws, splits and uploads
        fewer masks than the pool, which banked every stream's own
        ``(U, V, Z)`` before the first step."""
        _, base_report, _ = _train_weights(_cfg())
        _, pooled_report, _ = _train_weights(_cfg(pool_size=8))
        assert np.allclose(base_report.losses, pooled_report.losses, atol=1e-2)
        x = np.random.default_rng(0).normal(size=(192, 48))
        offline = {}
        for pool_size in (0, 8):
            ctx = SecureContext(_cfg(pool_size=pool_size))
            model = SecureMLP(ctx, 48, hidden=(24, 12), n_out=4)
            offline[pool_size] = secure_predict(ctx, model, x, batch_size=64).offline_s
        assert offline[8] <= offline[0] * (1 + 1e-9)

    def test_negative_pool_size_rejected(self):
        with pytest.raises(ConfigError):
            _cfg(pool_size=-1)
