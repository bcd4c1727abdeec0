"""Cross-cutting property-based tests (hypothesis) on core invariants.

These complement the per-module tests with randomized end-to-end
algebraic properties: homomorphism of sharing, linearity of the tensor
ops, protocol-vs-plain agreement under random shapes and values, and
codec roundtrips under adversarial sparsity patterns.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_ctx
from repro.comm.compression import DeltaCompressor
from repro.core import ops
from repro.core.tensor import SharedTensor
from repro.fixedpoint.ring import ring_add
from repro.mpc.shares import reconstruct, share_secret

small_floats = st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False)


def matrices(max_dim=5):
    return st.tuples(
        st.integers(1, max_dim), st.integers(1, max_dim), st.integers(0, 10_000)
    )


class TestSharingHomomorphism:
    @settings(max_examples=30, deadline=None)
    @given(matrices())
    def test_share_of_sum_equals_sum_of_shares(self, dims):
        m, n, seed = dims
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 2**64, size=(m, n), dtype=np.uint64)
        b = rng.integers(0, 2**64, size=(m, n), dtype=np.uint64)
        pa = share_secret(a, rng)
        pb = share_secret(b, rng)
        summed = reconstruct(ring_add(pa.share0, pb.share0), ring_add(pa.share1, pb.share1))
        assert np.array_equal(summed, ring_add(a, b))


class TestTensorAlgebra:
    @settings(max_examples=10, deadline=None)
    @given(matrices(4), st.lists(small_floats, min_size=1, max_size=3))
    def test_matmul_distributes_over_add(self, dims, scalars):
        m, n, seed = dims
        rng = np.random.default_rng(seed)
        ctx = make_ctx(seed=seed)
        a = rng.normal(size=(m, n))
        b = rng.normal(size=(m, n))
        c = rng.normal(size=(n, 2))
        ta = SharedTensor.from_plain(ctx, a)
        tb = SharedTensor.from_plain(ctx, b)
        tc = SharedTensor.from_plain(ctx, c)
        left = ops.secure_matmul(ta + tb, tc, label="l")
        right = ops.secure_matmul(ta, tc, label="r1") + ops.secure_matmul(tb, tc, label="r2")
        np.testing.assert_allclose(
            left.decode(), right.decode(), atol=2 * n * 2**-12 + 2**-9
        )

    @settings(max_examples=10, deadline=None)
    @given(matrices(4), small_floats)
    def test_public_scaling_commutes_with_decode(self, dims, scalar):
        m, n, seed = dims
        rng = np.random.default_rng(seed)
        ctx = make_ctx(seed=seed)
        a = rng.normal(size=(m, n))
        t = SharedTensor.from_plain(ctx, a)
        np.testing.assert_allclose(
            t.mul_public(scalar).decode(), scalar * a, atol=16 * 2**-13 + abs(scalar) * 2**-12
        )

    @settings(max_examples=10, deadline=None)
    @given(matrices(4))
    def test_double_negation_identity(self, dims):
        m, n, seed = dims
        rng = np.random.default_rng(seed)
        ctx = make_ctx(seed=seed)
        a = rng.normal(size=(m, n))
        t = SharedTensor.from_plain(ctx, a)
        np.testing.assert_array_equal((-(-t)).decode(), t.decode())


class TestActivationProperties:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 5000))
    def test_relu_idempotent(self, m, n, seed):
        rng = np.random.default_rng(seed)
        ctx = make_ctx(seed=seed)
        x = rng.normal(size=(m, n)) * 3
        t = SharedTensor.from_plain(ctx, x)
        once, _ = ops.activation(t, "relu", label="a1")
        twice, _ = ops.activation(once, "relu", label="a2")
        # relu(relu(x)) == relu(x) exactly on the decoded values
        np.testing.assert_array_equal(once.decode(), twice.decode())

    @settings(max_examples=8, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 5000))
    def test_piecewise_monotone(self, n, seed):
        rng = np.random.default_rng(seed)
        ctx = make_ctx(seed=seed)
        x = np.sort(rng.normal(size=(1, n + 1)) * 2, axis=1)
        out, _ = ops.activation(SharedTensor.from_plain(ctx, x), "piecewise", label="p")
        vals = out.decode().ravel()
        assert all(b >= a - 2e-3 for a, b in zip(vals, vals[1:]))


class TestCompressionProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 10),
        st.integers(1, 10),
        st.integers(1, 5),
        st.floats(0.0, 1.0),
        st.integers(0, 10_000),
    )
    def test_any_stream_roundtrips_exactly(self, m, n, steps, sparsity, seed):
        rng = np.random.default_rng(seed)
        sender = DeltaCompressor(0.75)
        receiver = DeltaCompressor(0.75)
        current = rng.integers(0, 2**64, size=(m, n), dtype=np.uint64)
        for _ in range(steps):
            payload = sender.encode("k", current)
            assert np.array_equal(receiver.decode(payload), current)
            delta = rng.integers(0, 2**64, size=(m, n), dtype=np.uint64)
            delta[rng.random((m, n)) < sparsity] = np.uint64(0)
            with np.errstate(over="ignore"):
                current = current + delta

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 10), st.integers(0, 10_000))
    def test_wire_bytes_never_exceed_raw(self, m, n, seed):
        rng = np.random.default_rng(seed)
        comp = DeltaCompressor(0.0)  # most aggressive setting
        for _ in range(3):
            mat = rng.integers(0, 2**64, size=(m, n), dtype=np.uint64)
            payload = comp.encode("k", mat)
            assert payload.wire_bytes <= payload.raw_bytes
