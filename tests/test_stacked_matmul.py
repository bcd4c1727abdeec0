"""The stacked secure matmul: ``(B,m,k) x (B,k,n)`` as one op.

A stack is ``B`` independent products behind one triplet, one exchange
round and one placement decision, on both backends.  It must compute
what ``B`` separate 2-D calls compute (share for share under
``beaver2pc``), open exactly its operands once, and follow the 2-D
path's transfer order and residency rule on the GPU.
"""

import numpy as np
import pytest

from repro.audit.conformance import FORWARD_TOL
from repro.comm.wire import frame_sizes
from repro.core.config import FrameworkConfig
from repro.core.context import SecureContext
from repro.core.ops import secure_compare_const, secure_matmul
from repro.core.tensor import SharedTensor
from repro.fixedpoint.ring import ring_matmul_batched
from repro.mpc.shares import SharePair, reconstruct
from repro.mpc.triplets import MatrixTriplet, TripletDealer
from repro.pipeline.scheduler import schedule_secure_gemm
from repro.simgpu.clock import SimClock
from repro.simgpu.cost import V100_SPEC
from repro.simgpu.device import SimGPU
from repro.util.errors import ShapeError

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
            ctx._matrix_triplets[f"slice{i}"] = MatrixTriplet(
                u=SharePair(trip.u[0][i], trip.u[1][i]),
                v=SharePair(trip.v[0][i], trip.v[1][i]),
                z=SharePair(trip.z[0][i], trip.z[1][i]),
                shape_a=(m, k), shape_b=(k, n),
            )
            xi = SharedTensor(ctx=ctx, shares=tuple(s[i] for s in x.shares))
            yi = SharedTensor(ctx=ctx, shares=tuple(s[i] for s in y.shares))
            single = secure_matmul(xi, yi, label=f"slice{i}")
            for party in (0, 1):
                np.testing.assert_array_equal(stack.shares[party][i], single.shares[party])

    def test_dealer_and_context_triplets_are_stacked_beaver_triples(self):
        dealt = TripletDealer(np.random.default_rng(0)).matrix_triplet((3, 2, 4), (3, 4, 5))
        ctx = _ctx(pool_size=4)
        pooled = ctx._gen_matrix_triplet_batch((3, 2, 4), (3, 4, 5), 2)
        assert len(pooled) == 2
        for trip in (dealt, ctx.gen_matrix_triplet((3, 2, 4), (3, 4, 5)), *pooled):
            u, v, z = (reconstruct(p[0], p[1]) for p in (trip.u, trip.v, trip.z))
            assert u.shape == (3, 2, 4) and v.shape == (3, 4, 5)
            np.testing.assert_array_equal(z, ring_matmul_batched(u, v))
        assert not np.array_equal(pooled[0].u[0], pooled[1].u[0])
        with pytest.raises(ShapeError):
            TripletDealer(np.random.default_rng(0)).matrix_triplet((3, 2, 4), (2, 4, 5))

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
        """The decision is asked for the fused (m, 2k, n) product Eq. 8 runs."""
        for backend in BACKENDS:
            ctx = _ctx(backend, trace=True)
            for (depth, m, k, n), placement in (
                ((32, 4, 16, 4), "cpu"), ((8, 128, 128, 128), "gpu"),
            ):
                _, _, x, y = _operands(ctx, depth, m, k, n)
                start = len(ctx.online_clock.trace)
                secure_matmul(x, y, label=f"p{m}")
                decision = ctx.profiler.decisions[("gemm_batched", (depth, m, 2 * k, n))]
                assert decision.placement == placement
                gemms = [
                    t for t in ctx.online_clock.trace[start:]
                    if t.label.endswith(("cpu_gemm", "D@F", "E@B", ":gemm"))
                ]
                assert {"gpu" in t.resource for t in gemms} == {placement == "gpu"}

    def test_stack_uploads_in_fig5_order_on_a_bare_gpu(self):
        rng = np.random.default_rng(0)
        shapes = ((8, 128, 128), (8, 128, 128))
        a, b = (rng.integers(0, 2**64, size=s, dtype=np.uint64) for s in shapes)
        trip = TripletDealer(np.random.default_rng(1)).matrix_triplet(*shapes)
        e, f = a - reconstruct(trip.u[0], trip.u[1]), b - reconstruct(trip.v[0], trip.v[1])
        a0, b0 = (rng.integers(0, 2**64, size=s, dtype=np.uint64) for s in shapes)
        shares = []
        for party, (a_i, b_i) in enumerate(((a0, b0), (a - a0, b - b0))):
            clock = SimClock()
            clock.set_tracing(True)
            gpu = SimGPU(clock, V100_SPEC, "g")
            res = schedule_secure_gemm(gpu, party, e, f, a_i, b_i, trip.share_for(party))
            assert [t.label for t in clock.trace if t.resource == "g.h2d"] == FIG5_ORDER
            assert gpu.gemm_count == 2 and gpu.pool.allocated_bytes == 0
            shares.append(res.c_share)
        np.testing.assert_array_equal(shares[0] + shares[1], ring_matmul_batched(a, b))

    def test_fresh_triplets_keep_nothing_resident(self):
        ctx = _ctx(fresh_triplets=True, placement_mode="gpu_always")
        _, _, x, y = _operands(ctx, 4, 8, 8, 8)
        y.mark_static()
        for _ in range(2):
            ctx.begin_batch()
            secure_matmul(x, y, label="fresh")
        assert ctx.device_table(0) == ctx.device_table(1) == {}
        assert [gpu.pool.allocated_bytes for gpu in ctx.server_gpu] == [0, 0]

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
        assert uploads == [FIG5_ORDER, ["h2d:E", "h2d:A", "h2d:B"]]
