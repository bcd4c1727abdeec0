"""Interactive secure ops: correctness across all configurations."""

import numpy as np
import pytest

from repro.core import ops
from repro.core.tensor import SharedTensor
from conftest import make_ctx
from repro.util.errors import ProtocolError, ShapeError


def shared(ctx, arr, **kw):
    return SharedTensor.from_plain(ctx, np.asarray(arr, dtype=np.float64), **kw)


class TestSecureMatmul:
    def test_matches_numpy(self, ctx, rng):
        a, b = rng.normal(size=(12, 9)), rng.normal(size=(9, 5))
        out = ops.secure_matmul(shared(ctx, a), shared(ctx, b), label="t")
        np.testing.assert_allclose(out.decode(), a @ b, atol=9 * 2**-12 + 2**-10)

    def test_cpu_and_gpu_paths_numerically_identical(self, rng):
        """Placement must never change results — only timing."""
        a, b = rng.normal(size=(8, 8)), rng.normal(size=(8, 8))
        outs = []
        for mode in ("cpu_always", "gpu_always"):
            ctx = make_ctx(placement_mode=mode, seed=99)
            out = ops.secure_matmul(shared(ctx, a), shared(ctx, b), label="t")
            outs.append(out.decode())
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_pipeline_flag_does_not_change_numerics(self, rng):
        a, b = rng.normal(size=(8, 8)), rng.normal(size=(8, 8))
        outs = []
        for p1 in (False, True):
            ctx = make_ctx(pipeline1=p1, seed=5)
            outs.append(ops.secure_matmul(shared(ctx, a), shared(ctx, b), label="t").decode())
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_compression_flag_does_not_change_numerics(self, rng):
        a, b = rng.normal(size=(8, 8)), rng.normal(size=(8, 8))
        outs = []
        for comp in (False, True):
            ctx = make_ctx(compression=comp, seed=5)
            ta, tb = shared(ctx, a), shared(ctx, b)
            for rep in range(3):  # repeats let the delta path engage
                out = ops.secure_matmul(ta, tb, label="t")
            outs.append(out.decode())
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_shape_mismatch(self, ctx, rng):
        with pytest.raises(ShapeError):
            ops.secure_matmul(shared(ctx, rng.normal(size=(3, 4))), shared(ctx, rng.normal(size=(5, 2))))

    def test_charges_online_time_and_bytes(self, ctx, rng):
        a, b = rng.normal(size=(16, 16)), rng.normal(size=(16, 16))
        mark = ctx.mark()
        ops.secure_matmul(shared(ctx, a), shared(ctx, b), label="t")
        delta = ctx.since(mark)
        assert delta.online_s > 0
        assert delta.server_bytes > 0

    def test_triplet_stream_reused_across_calls(self, ctx, rng):
        a, b = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        ta, tb = shared(ctx, a), shared(ctx, b)
        ops.secure_matmul(ta, tb, label="stream")
        issued = ctx.triplets_issued
        ops.secure_matmul(ta, tb, label="stream")
        assert ctx.triplets_issued == issued  # cached stream

    def test_fresh_triplets_config(self, rng):
        ctx = make_ctx(fresh_triplets=True)
        a, b = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        ta, tb = shared(ctx, a), shared(ctx, b)
        ops.secure_matmul(ta, tb, label="stream")
        issued = ctx.triplets_issued
        ops.secure_matmul(ta, tb, label="stream")
        assert ctx.triplets_issued == issued + 1


class TestElementwiseMul:
    def test_matches_numpy(self, ctx, rng):
        a, b = rng.normal(size=(6, 7)), rng.normal(size=(6, 7))
        out = ops.secure_elementwise_mul(shared(ctx, a), shared(ctx, b), label="h")
        np.testing.assert_allclose(out.decode(), a * b, atol=2**-10)

    def test_fixed_times_indicator_keeps_scale(self, ctx, rng):
        a = rng.normal(size=(5, 5))
        mask = (rng.random((5, 5)) > 0.5).astype(np.int64)
        ta = shared(ctx, a)
        tm = SharedTensor.from_plain(ctx, mask, kind="indicator")
        out = ops.secure_elementwise_mul(ta, tm, label="mask")
        assert out.kind == "fixed"
        np.testing.assert_allclose(out.decode(), a * mask, atol=2e-4)

    def test_shape_mismatch(self, ctx, rng):
        with pytest.raises(ShapeError):
            ops.secure_elementwise_mul(
                shared(ctx, rng.normal(size=(2, 2))), shared(ctx, rng.normal(size=(3, 3)))
            )


class TestCompare:
    def test_indicator_correct(self, ctx, rng):
        x = rng.normal(size=(6, 6)) * 2
        out = ops.secure_compare_const(shared(ctx, x), 0.5, label="c")
        assert out.kind == "indicator"
        np.testing.assert_array_equal(out.decode(), (x >= 0.5).astype(float))

    def test_rejects_indicator_input(self, ctx):
        ind = SharedTensor.from_plain(ctx, np.eye(3), kind="indicator")
        with pytest.raises(ProtocolError):
            ops.secure_compare_const(ind, 0.0)

    def test_op_agrees_with_plaintext_reference(self, ctx, rng):
        from oracles import emulated_ge_const
        from repro.mpc.shares import reconstruct

        xs = shared(ctx, rng.normal(size=(5, 4)))
        out = ops.secure_compare_const(xs, 0.0, label="c")
        ref = emulated_ge_const(xs.shares[0], xs.shares[1], 0, rng)
        np.testing.assert_array_equal(
            reconstruct(*out.shares), reconstruct(ref.share0, ref.share1)
        )

    def test_charges_comm(self, ctx, rng):
        x = rng.normal(size=(16, 16))
        mark = ctx.mark()
        ops.secure_compare_const(shared(ctx, x), 0.0, label="c")
        assert ctx.since(mark).server_bytes > 0


class TestActivation:
    def test_relu(self, ctx, rng):
        x = rng.normal(size=(8, 8)) * 2
        out, mask = ops.activation(shared(ctx, x), "relu", label="a")
        np.testing.assert_allclose(out.decode(), np.maximum(x, 0), atol=3e-4)
        np.testing.assert_array_equal(mask.decode(), (x >= 0).astype(float))

    def test_piecewise_matches_eq9(self, ctx, rng):
        x = rng.normal(size=(10, 4)) * 1.5
        out, mask = ops.activation(shared(ctx, x), "piecewise", label="a")
        expected = np.clip(x + 0.5, 0.0, 1.0)
        np.testing.assert_allclose(out.decode(), expected, atol=1e-3)
        inside = ((x >= -0.5) & (x < 0.5)).astype(float)
        np.testing.assert_array_equal(mask.decode(), inside)

    def test_piecewise_exact_breakpoints(self, ctx):
        x = np.array([[-1.0, -0.5, 0.0, 0.5, 1.0]])
        out, _ = ops.activation(shared(ctx, x), "piecewise", label="a")
        np.testing.assert_allclose(out.decode(), [[0.0, 0.0, 0.5, 1.0, 1.0]], atol=1e-3)

    def test_unknown_kind(self, ctx, rng):
        with pytest.raises(ProtocolError):
            ops.activation(shared(ctx, rng.normal(size=(2, 2))), "softplus")


class TestDoublePipelineEquivalence:
    def test_numerics_invariant_to_pipeline2(self, rng):
        """Pipeline 2 only reorders the schedule; results are identical."""
        a, b, c = (rng.normal(size=(6, 6)) for _ in range(3))
        outs = []
        for dp in (False, True):
            ctx = make_ctx(double_pipeline=dp, seed=8)
            t = ops.secure_matmul(shared(ctx, a), shared(ctx, b), label="l1")
            t = ops.secure_matmul(t, shared(ctx, c), label="l2")
            outs.append(t.decode())
        np.testing.assert_array_equal(outs[0], outs[1])


class TestZeroSizeGemm:
    def test_zero_dim_placement_does_not_crash(self):
        ctx = make_ctx()
        decision = ctx.profiler.place_gemm(0, 4, 4, 4)
        assert decision.placement in ("cpu", "gpu")
        decision = ctx.profiler.place_gemm(2, 0, 4, 4)
        assert decision.placement in ("cpu", "gpu")

    def test_empty_secure_matmul(self):
        ctx = make_ctx()
        a = SharedTensor.from_plain(ctx, np.zeros((2, 0)), label="a")
        b = SharedTensor.from_plain(ctx, np.zeros((0, 3)), label="b")
        out = ops.secure_matmul(a, b, label="empty")
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out.decode(), np.zeros((2, 3)), atol=1e-6)


class TestOneContext:
    """Shares of two deployments are two different sharings: an op across
    them used to decode to garbage (a ``beaver2pc`` x ``rep3`` product of
    ``ones(2, 2)`` read entries of order 1e11) instead of failing."""

    OPS = {
        "matmul": lambda x, y: ops.secure_matmul(x, y, label="p"),
        "mul": lambda x, y: ops.secure_elementwise_mul(x, y, label="p"),
        "add": lambda x, y: x + y,
        "sub": lambda x, y: x - y,
    }

    @pytest.mark.parametrize("op", sorted(OPS))
    @pytest.mark.parametrize("backends", [("beaver2pc", "rep3"), ("beaver2pc", "beaver2pc")])
    def test_operands_of_two_contexts_are_a_protocol_error(self, op, backends):
        x, y = (
            shared(make_ctx(backend=b, seed=i), np.ones((2, 2))) for i, b in enumerate(backends)
        )
        label = "p" if op in ("matmul", "mul") else op
        with pytest.raises(ProtocolError, match=rf"\[{label}\].*{backends[0]} and {backends[1]}"):
            self.OPS[op](x, y)
