"""The stacked secure matmul: ``(B,m,k) x (B,k,n)`` as one op.

A stack is ``B`` independent products behind one triplet, one exchange
round and one placement decision, on both backends.  It must compute
what ``B`` separate 2-D calls compute (share for share under
``beaver2pc``), open exactly its operands once, and follow the 2-D
path's transfer order and residency rule on the GPU.
"""

import itertools

import numpy as np
import pytest
from conftest import device_table
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.audit.conformance import FORWARD_TOL
from repro.comm.wire import frame_sizes
from repro.core.config import FrameworkConfig
from repro.core.context import SecureContext
from repro.core.ops import secure_compare_const, secure_matmul
from repro.core.tensor import SharedTensor
from repro.fixedpoint.ring import CHUNK_K, ring_matmul
from repro.mpc.shares import SharePair, reconstruct
from repro.mpc.triplets import MaskView, MatrixTriplet
from repro.pipeline.profiler import StepProfiler
from repro.simgpu.clock import SimClock
from repro.simgpu.cost import V100_FP32_SPEC, V100_SPEC, XEON_E5_2670V3_SPEC
from repro.simgpu.device import SimCPU, SimGPU
from repro.util.errors import ShapeError
from repro.util.validation import gemm_dims

BACKENDS = ("beaver2pc", "rep3")
FIG5_ORDER = ["h2d:E", "h2d:A", "h2d:F", "h2d:B", "h2d:Z"]


def _ctx(backend="beaver2pc", **kw):
    return SecureContext.create(FrameworkConfig.parsecureml(backend=backend, **kw))


def _operands(ctx, depth, m, k, n, seed=0):
    rng = np.random.default_rng(seed)
    a = 0.5 * rng.standard_normal((depth, m, k))
    b = 0.5 * rng.standard_normal((depth, k, n))
    return (
        a, b,
        SharedTensor.from_plain(ctx, a, label="a"),
        SharedTensor.from_plain(ctx, b, label="b"),
    )


def _stacked(plain_a, plain_b):
    return np.einsum("bmk,bkn->bmn", plain_a, plain_b)


@pytest.mark.parametrize("backend", BACKENDS)
class TestValues:
    def test_fixed_times_fixed_matches_einsum(self, backend):
        ctx = _ctx(backend)
        a, b, x, y = _operands(ctx, 5, 3, 6, 4)
        out = secure_matmul(x, y, label="stack")
        assert out.shape == (5, 3, 4) and out.kind == "fixed"
        assert np.max(np.abs(out.decode() - _stacked(a, b))) <= FORWARD_TOL

    def test_fixed_times_indicator_keeps_single_scale(self, backend):
        ctx = _ctx(backend)
        a, b, x, y = _operands(ctx, 4, 3, 5, 2)
        mask = secure_compare_const(y, 0.0, label="ge0")
        out = secure_matmul(x, mask, label="select")
        assert out.kind == "fixed"
        assert np.max(np.abs(out.decode() - _stacked(a, (b >= 0).astype(float)))) <= FORWARD_TOL

    def test_transposed_stack_operand(self, backend):
        ctx = _ctx(backend)
        a, b, x, y = _operands(ctx, 4, 3, 5, 5)
        out = secure_matmul(x, y.T, label="xyT")
        want = np.einsum("bmk,bnk->bmn", a, b)
        assert np.max(np.abs(out.decode() - want)) <= FORWARD_TOL

    def test_depth_one_and_ragged_depth_on_one_stream(self, backend):
        """A stream whose depth changes (a ragged tail batch) re-deals."""
        ctx = _ctx(backend)
        for depth in (4, 1, 3):
            a, b, x, y = _operands(ctx, depth, 2, 3, 2, seed=depth)
            ctx.begin_batch()
            out = secure_matmul(x, y, label="ragged")
            assert out.shape == (depth, 2, 2)
            assert np.max(np.abs(out.decode() - _stacked(a, b))) <= FORWARD_TOL

    def test_mismatched_stacks_name_backend_and_label(self, backend):
        ctx = _ctx(backend)
        _, _, x, y = _operands(ctx, 4, 3, 5, 2)
        _, _, _, short = _operands(ctx, 3, 3, 5, 2)
        for bad in (short, y.reshape(4 * 5, 2), y.reshape(2, 2, 5, 2)):
            with pytest.raises(ShapeError, match=rf"\[{backend}:mix\]"):
                secure_matmul(x, bad, label="mix")


class TestBeaverStack:
    def test_equals_separate_products_on_the_triplets_slices(self):
        """Share for share: the stack is B Eq. 8 products, nothing else."""
        ctx = _ctx()
        depth, m, k, n = 4, 3, 6, 5
        _, _, x, y = _operands(ctx, depth, m, k, n)
        stack = secure_matmul(x, y, label="stack")
        trip = ctx._matrix_triplets["stack"]
        for i in range(depth):
            u, v = (SharePair(pair[0][i], pair[1][i]) for pair in (trip.u, trip.v))
            ctx._matrix_triplets[f"slice{i}"] = MatrixTriplet(
                u=u, v=v, z=SharePair(trip.z[0][i], trip.z[1][i]),
                shape_a=(m, k), shape_b=(k, n),
                masks=tuple(
                    MaskView.over(pair, (f"slice{i}", side), False)
                    for pair, side in ((u, "E"), (v, "F"))
                ),
            )
            xi = SharedTensor(ctx=ctx, shares=tuple(s[i] for s in x.shares))
            yi = SharedTensor(ctx=ctx, shares=tuple(s[i] for s in y.shares))
            single = secure_matmul(xi, yi, label=f"slice{i}")
            for party in (0, 1):
                np.testing.assert_array_equal(stack.shares[party][i], single.shares[party])

    def test_dealer_and_context_triplets_are_stacked_beaver_triples(self):
        ctx = _ctx()
        trip = ctx.gen_matrix_triplet((3, 2, 4), (3, 4, 5))
        u, v, z = (reconstruct(p[0], p[1]) for p in (trip.u, trip.v, trip.z))
        assert u.shape == (3, 2, 4) and v.shape == (3, 4, 5)
        np.testing.assert_array_equal(z, ring_matmul(u, v))
        with pytest.raises(ShapeError):
            ctx.gen_matrix_triplet((3, 2, 4), (2, 4, 5))

    def test_opens_each_operand_once_in_one_frame_per_direction(self):
        ctx = _ctx()
        _, _, x, y = _operands(ctx, 8, 4, 16, 4)
        recorder = ctx.attach_recorder()
        secure_matmul(x, y, label="qk")
        records = [r for r in recorder.transcript().records if r.src.startswith("server")]
        assert [(r.src, r.dst, r.tag) for r in records] == [
            ("server0", "server1", "qk/EF/0"), ("server1", "server0", "qk/EF/1"),
        ]
        opened = 8 * (x.shares[0].size + y.shares[0].size)
        for record in records:
            assert opened < record.nbytes <= opened + 256
            # the two halves, each flattened to (B*rows, cols)
            assert [len(part) for part in record.parts] == [x.nbytes, y.nbytes]


class TestRep3Stack:
    def test_one_reshare_frame_per_link_carries_the_whole_stack(self):
        ctx = _ctx("rep3")
        _, _, x, y = _operands(ctx, 8, 4, 16, 4)
        recorder = ctx.attach_recorder()
        out = secure_matmul(x, y, label="qk", truncate_result=False)
        records = [r for r in recorder.transcript().records if r.src.startswith("server")]
        assert sorted(r.tag for r in records) == [f"qk/reshare{i}" for i in range(3)]
        for record in records:
            assert record.nbytes == frame_sizes(record.tag, out.shares[0]).nbytes
            assert out.nbytes < record.nbytes <= out.nbytes + 256


class TestPlacement:
    def test_attention_scores_stay_on_the_cpu_and_fat_stacks_go_to_the_gpu(self):
        """The decision is asked for the plan the backend runs on the stack."""
        for backend in BACKENDS:
            ctx = _ctx(backend, trace=True)
            for (depth, m, k, n), placement in (
                ((32, 4, 16, 4), "cpu"), ((8, 128, 128, 128), "gpu"),
            ):
                _, _, x, y = _operands(ctx, depth, m, k, n)
                start = len(ctx.online_clock.trace)
                secure_matmul(x, y, label=f"p{m}")
                (decision,) = (
                    d for (plan, shape, _), d in ctx.profiler.decisions.items()
                    if (plan, shape) == (backend, (depth, m, k, n))
                )
                assert decision.placement == placement
                gemms = [
                    t for t in ctx.online_clock.trace[start:]
                    if t.label.endswith(("cpu_gemm", "[D,E]@[F,B]", ":gemm"))
                ]
                assert {"gpu" in t.resource for t in gemms} == {placement == "gpu"}

    def test_16_wide_attention_products_run_on_the_cpu_and_the_projections_on_the_gpu(self):
        """At ``perf/``'s ``train_attention`` geometry (4 tokens, d = 16,
        batch 32) ``attn/o`` and ``attn/dC`` finish first on the CPU, the
        fused ``qkv``/``dWqkv`` projections on the GPU, and so does
        ``attn/dWo``, issued behind ``dC`` on a busy server CPU, on the
        dealing step and after it."""
        import repro

        ctx = SecureContext.create(FrameworkConfig(seed=0, trace=True))
        trainer = repro.SecureTrainer(ctx, repro.SecureAttention(ctx, 4, 16), monitor_loss=False)
        rng = np.random.default_rng(0)
        x, y = 0.5 * rng.standard_normal((32, 64)), np.eye(3)[rng.integers(0, 3, size=32)]
        for _ in range(2):
            start, gemms = len(ctx.online_clock.trace), [g.gemm_count for g in ctx.server_gpu]
            trainer.train(x, y, batch_size=32)
            on_cpu = {
                t.label.removesuffix(":cpu_gemm") for t in ctx.online_clock.trace[start:]
                if t.label.endswith(":cpu_gemm")
            }
            assert {"attn/o", "attn/dC"} <= on_cpu
            assert not {"attn/qkv", "attn/dWo", "attn/dWqkv"} & on_cpu
            # qkv, dWo and dWqkv are the server GPUs' only products: one GEMM launch each
            assert [g.gemm_count - n for g, n in zip(ctx.server_gpu, gemms)] == [3, 3]

    def test_stack_uploads_in_fig5_order_on_a_bare_gpu(self):
        ctx = _ctx(fresh_triplets=True, placement_mode="gpu_always", trace=True)
        _, _, x, y = _operands(ctx, 8, 128, 128, 128)
        start = len(ctx.online_clock.trace)
        out = ctx.backend.matmul(ctx, x, y, label="p")
        for gpu in ctx.server_gpu:
            placed = ctx.online_clock.trace[start:]
            uploads = [t.label for t in placed if t.resource == gpu.h2d_engine]
            assert uploads == [f"p:{name}" for name in FIG5_ORDER]
            assert gpu.gemm_count == 1 and gpu.pool.allocated_bytes == 0
        want = ring_matmul(reconstruct(*x.shares), reconstruct(*y.shares))
        np.testing.assert_array_equal(reconstruct(*out.shares), want)

    def test_fresh_triplets_keep_only_the_static_share_resident(self):
        """Single-use masks leave no ``F`` or ``Z``; the static stack's
        share is the server's own data and stays."""
        ctx = _ctx(fresh_triplets=True, placement_mode="gpu_always")
        _, _, x, y = _operands(ctx, 4, 8, 8, 8)
        y.mark_static()
        for _ in range(2):
            ctx.begin_batch()
            secure_matmul(x, y, label="fresh")
        assert list(device_table(ctx, 0)) == list(device_table(ctx, 1)) == [("share", y.uid)]
        assert [gpu.pool.allocated_bytes for gpu in ctx.server_gpu] == [y.nbytes] * 2

    def test_static_stack_operand_is_opened_and_uploaded_once(self):
        ctx = _ctx(placement_mode="gpu_always", trace=True)
        a, b, x, y = _operands(ctx, 4, 8, 8, 8)
        y.mark_static()
        uploads = []
        for _ in range(2):
            ctx.begin_batch()
            start = len(ctx.online_clock.trace)
            out = secure_matmul(x, y, label="static")
            uploads.append(
                [t.label for t in ctx.online_clock.trace[start:] if t.resource == "s0gpu.h2d"]
            )
            assert np.max(np.abs(out.decode() - _stacked(a, b))) <= FORWARD_TOL
        assert uploads == [[f"static:{n}" for n in FIG5_ORDER], ["static:h2d:E", "static:h2d:A"]]


def _on_gpu(x, y, trans_a, trans_b, gpu_spec):
    """``x @ y`` on a fresh GPU whose buffers hold what ``op()`` reads."""
    gpu = SimGPU(SimClock(), gpu_spec, "g")
    flip = lambda m, t: np.ascontiguousarray(np.swapaxes(m, -1, -2)) if t else m
    (xb, _), (yb, _) = gpu.h2d(flip(x, trans_a)), gpu.h2d(flip(y, trans_b))
    out, task = gpu.gemm_ring(xb, yb, trans_a=trans_a, trans_b=trans_b)
    return out.require_live(), task.duration, gpu.gemm_count, gpu.gemm_flops


@pytest.mark.property
@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(0, 4),
    k=st.one_of(st.integers(0, 6), st.integers(CHUNK_K - 1, CHUNK_K + 3)),
    n=st.integers(0, 4),
    gpu_spec=st.sampled_from([V100_SPEC, V100_FP32_SPEC]),
    seed=st.integers(0, 2**16),
)
@example(m=2, k=0, n=3, gpu_spec=V100_SPEC, seed=0)
@example(m=3, k=CHUNK_K + 1, n=2, gpu_spec=V100_FP32_SPEC, seed=1)
def test_a_matrix_product_is_a_stack_of_one(m, k, n, gpu_spec, seed):
    """``(m,k) x (k,n)`` and the same operands as ``(1,m,k) x (1,k,n)``
    compute, cost and place alike on every layer of the GEMM path."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2**64, size=(m, k), dtype=np.uint64)
    b = rng.integers(0, 2**64, size=(k, n), dtype=np.uint64)
    one_a, one_b = a[None], b[None]
    want = ring_matmul(a, b)
    np.testing.assert_array_equal(ring_matmul(one_a, one_b), want[None])
    for flags in itertools.product((False, True), repeat=2):
        out, seconds, launches, flops = _on_gpu(a, b, *flags, gpu_spec)
        one_out, one_seconds, *one_counts = _on_gpu(one_a, one_b, *flags, gpu_spec)
        np.testing.assert_array_equal(out, want)
        np.testing.assert_array_equal(one_out, want[None])
        assert (one_seconds, *one_counts) == (seconds, launches, flops), flags
    cpu_runs = [
        SimCPU(SimClock(), XEON_E5_2670V3_SPEC, "c").run_step("gemm", gemm_dims(x.shape, y.shape))
        for x, y in ((a, b), (one_a, one_b))
    ]
    assert cpu_runs[1].duration == cpu_runs[0].duration
    for plan in ("dealer", "rep3", "beaver2pc"):
        decisions = [
            StepProfiler(XEON_E5_2670V3_SPEC, gpu_spec).place_gemm(
                *gemm_dims(x.shape, y.shape), plan=plan
            )
            for x, y in ((a, b), (one_a, one_b))
        ]
        assert decisions[0] == decisions[1]

