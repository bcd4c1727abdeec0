"""Ring arithmetic in Z_{2^64}: exactness against Python big integers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fixedpoint.ring import (
    CHUNK_K,
    LIMB_BITS,
    ring_add,
    ring_matmul,
    ring_matmul_batched,
    ring_mul,
    ring_neg,
    ring_sub,
    ring_sum,
)
from repro.util.errors import ShapeError

MOD = 2**64

u64 = st.integers(min_value=0, max_value=MOD - 1)


def as_arr(values):
    return np.array(values, dtype=np.uint64)


class TestElementwise:
    @given(u64, u64)
    def test_add_matches_python(self, a, b):
        assert int(ring_add(as_arr([a]), as_arr([b]))[0]) == (a + b) % MOD

    @given(u64, u64)
    def test_sub_matches_python(self, a, b):
        assert int(ring_sub(as_arr([a]), as_arr([b]))[0]) == (a - b) % MOD

    @given(u64, u64)
    def test_mul_matches_python(self, a, b):
        assert int(ring_mul(as_arr([a]), as_arr([b]))[0]) == (a * b) % MOD

    @given(u64)
    def test_neg_is_additive_inverse(self, a):
        arr = as_arr([a])
        assert int(ring_add(arr, ring_neg(arr))[0]) == 0

    @given(st.lists(u64, min_size=1, max_size=20))
    def test_sum_matches_python(self, values):
        assert int(ring_sum(as_arr(values))) == sum(values) % MOD

    def test_add_broadcasts(self):
        a = np.zeros((3, 4), dtype=np.uint64)
        b = np.uint64(7)
        assert (ring_add(a, b) == 7).all()

    def test_rejects_float_input(self):
        with pytest.raises(TypeError):
            ring_add(np.ones(3), as_arr([1, 2, 3]))

    def test_accepts_other_integer_dtypes(self):
        a = np.array([1, 2], dtype=np.int32)
        out = ring_add(a, a)
        assert out.dtype == np.uint64
        assert list(out) == [2, 4]


class TestMatmul:
    def _reference(self, a, b):
        """Python-int matmul mod 2^64 (slow, exact)."""
        m, k = a.shape
        n = b.shape[1]
        out = np.zeros((m, n), dtype=np.uint64)
        for i in range(m):
            for j in range(n):
                acc = 0
                for t in range(k):
                    acc += int(a[i, t]) * int(b[t, j])
                out[i, j] = acc % MOD
        return out

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(1, 5),
        st.integers(1, 5),
        st.integers(0, 2**32),
    )
    def test_matches_python_reference(self, m, k, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, MOD, size=(m, k), dtype=np.uint64)
        b = rng.integers(0, MOD, size=(k, n), dtype=np.uint64)
        assert np.array_equal(ring_matmul(a, b), self._reference(a, b))

    def test_matches_numpy_uint64_matmul(self, rng):
        # NumPy's uint64 matmul wraps mod 2^64 (C unsigned semantics) —
        # slower than our limb path but a valid oracle.
        a = rng.integers(0, MOD, size=(17, 33), dtype=np.uint64)
        b = rng.integers(0, MOD, size=(33, 9), dtype=np.uint64)
        with np.errstate(over="ignore"):
            expected = a @ b
        assert np.array_equal(ring_matmul(a, b), expected)

    def test_extreme_values(self):
        a = np.full((2, 3), MOD - 1, dtype=np.uint64)
        b = np.full((3, 2), MOD - 1, dtype=np.uint64)
        expected = np.full((2, 2), (3 * (MOD - 1) ** 2) % MOD, dtype=np.uint64)
        assert np.array_equal(ring_matmul(a, b), expected)

    def test_identity(self, rng):
        a = rng.integers(0, MOD, size=(6, 6), dtype=np.uint64)
        eye = np.eye(6, dtype=np.uint64)
        assert np.array_equal(ring_matmul(a, eye), a)

    def test_distributes_over_addition(self, rng):
        a = rng.integers(0, MOD, size=(4, 7), dtype=np.uint64)
        b = rng.integers(0, MOD, size=(7, 3), dtype=np.uint64)
        c = rng.integers(0, MOD, size=(7, 3), dtype=np.uint64)
        left = ring_matmul(a, ring_add(b, c))
        right = ring_add(ring_matmul(a, b), ring_matmul(a, c))
        assert np.array_equal(left, right)

    def test_shape_mismatch_raises(self, rng):
        a = rng.integers(0, MOD, size=(4, 7), dtype=np.uint64)
        b = rng.integers(0, MOD, size=(6, 3), dtype=np.uint64)
        with pytest.raises(ShapeError):
            ring_matmul(a, b)

    def test_non_2d_raises(self, rng):
        a = rng.integers(0, MOD, size=(4,), dtype=np.uint64)
        with pytest.raises(ShapeError):
            ring_matmul(a, a)


def _frozen_16bit_matmul(a, b):
    """The 4 x 16-bit limb kernel this module shipped before the 3-limb
    one, frozen as an oracle: ten float64 products, exact for k <= 2^20.
    Works over the last two axes, so it checks stacks as well."""

    def limbs(x):
        return [((x >> np.uint64(16 * i)) & np.uint64(0xFFFF)).astype(np.float64) for i in range(4)]

    a_limbs, b_limbs = limbs(a), limbs(b)
    result = np.zeros((*a.shape[:-1], b.shape[-1]), dtype=np.uint64)
    for i in range(4):
        for j in range(4 - i):
            partial = np.matmul(a_limbs[i], b_limbs[j])
            result += partial.astype(np.uint64) << np.uint64(16 * (i + j))
    return result


def _uniform(rng, shape):
    return rng.integers(0, MOD, size=shape, dtype=np.uint64)


_LIMB = (1 << LIMB_BITS) - 1
PATTERNS = {
    "uniform": _uniform,
    "all_ones": lambda rng, shape: np.full(shape, MOD - 1, dtype=np.uint64),
    "top_20_bits": lambda rng, shape: _uniform(rng, shape) & np.uint64(MOD - (1 << 2 * LIMB_BITS)),
    "middle_limb": lambda rng, shape: _uniform(rng, shape) & np.uint64(_LIMB << LIMB_BITS),
}


def _oracle(a, b):
    """NumPy's wrapping ``uint64 @``, cross-checked against the frozen kernel."""
    expected = a @ b
    np.testing.assert_array_equal(_frozen_16bit_matmul(a, b), expected)
    return expected


def _layouts(x):
    """Views equal to C-contiguous ``x`` that differ in the strides of
    their last two axes."""
    yield "contiguous", x
    yield "transposed", np.ascontiguousarray(np.swapaxes(x, -1, -2)).swapaxes(-1, -2)
    wide = np.full((*x.shape[:-2], 2 * x.shape[-2], 2 * x.shape[-1]), 0x5A5A, dtype=x.dtype)
    wide[..., ::2, ::2] = x
    yield "strided", wide[..., ::2, ::2]


@pytest.mark.property
class TestLimbKernelExactness:
    """``ring_matmul`` / ``ring_matmul_batched`` against two independent
    oracles -- NumPy's wrapping ``uint64 @`` and the frozen 16-bit limb
    kernel -- around the 512-column chunk edge and the limb edges."""

    def test_chunk_headroom(self):
        # One chunk of worst-case limb products must stay an exact float64
        # integer, and three limbs must cover the 64-bit word (the top
        # limb is taken unmasked, so it has 64 - 2 * LIMB_BITS bits).
        assert CHUNK_K * (2**LIMB_BITS - 1) ** 2 < 2**53
        assert 64 - 2 * LIMB_BITS <= LIMB_BITS

    def _check(self, fn, a, b):
        expected = _oracle(a, b)
        for a_layout, a_view in _layouts(a):
            for b_layout, b_view in _layouts(b):
                # The int64 view is negative wherever the top bit is set.
                for dtype in (np.uint64, np.int64):
                    got = fn(a_view.view(dtype), b_view.view(dtype))
                    assert got.dtype == np.uint64
                    np.testing.assert_array_equal(
                        got, expected, err_msg=f"a {a_layout}, b {b_layout}, {dtype.__name__}"
                    )

    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    @pytest.mark.parametrize("k", [1, 511, 512, 513, 1024, 1025, 1537])
    def test_chunk_and_limb_boundaries(self, k, pattern, rng):
        fill = PATTERNS[pattern]
        self._check(ring_matmul, fill(rng, (3, k)), fill(rng, (k, 4)))
        self._check(ring_matmul_batched, fill(rng, (2, 3, k)), fill(rng, (2, k, 4)))

    @pytest.mark.parametrize(
        "m,k,n", [(128, 784, 128), (784, 128, 128), (9216, 25, 16), (16, 4608, 100)]
    )
    def test_benchmark_shapes(self, m, k, n, rng):
        a, b = _uniform(rng, (2, m, k)), _uniform(rng, (2, k, n))
        expected = _oracle(a, b)
        np.testing.assert_array_equal(ring_matmul(a[0], b[0]), expected[0])
        np.testing.assert_array_equal(ring_matmul_batched(a, b), expected)


class TestDegenerateShapes:
    """Empty dimensions give correctly shaped uint64 zeros, not an error
    or a ``None`` from a loop that never ran."""

    @pytest.mark.parametrize("m,k,n", [(3, 0, 2), (0, 3, 2), (3, 2, 0), (0, 0, 0)])
    def test_matmul(self, m, k, n):
        out = ring_matmul(np.ones((m, k), dtype=np.uint64), np.ones((k, n), dtype=np.uint64))
        assert out.shape == (m, n) and out.dtype == np.uint64
        assert not out.any()

    @pytest.mark.parametrize(
        "batch,m,k,n", [(2, 3, 0, 2), (2, 0, 3, 2), (2, 3, 2, 0), (0, 3, 4, 2), (0, 3, 0, 2)]
    )
    def test_matmul_batched(self, batch, m, k, n):
        out = ring_matmul_batched(
            np.ones((batch, m, k), dtype=np.uint64), np.ones((batch, k, n), dtype=np.uint64)
        )
        assert out.shape == (batch, m, n) and out.dtype == np.uint64
        assert not out.any()


class TestRingNegOut:
    """In-place negation: ``out=`` parity with the allocating form."""

    @settings(max_examples=50, deadline=None)
    @given(st.lists(u64, min_size=1, max_size=8))
    def test_out_matches_allocating(self, values):
        a = as_arr(values)
        expected = ring_neg(a)
        out = np.empty_like(a)
        result = ring_neg(a, out=out)
        assert result is out
        assert np.array_equal(result, expected)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(u64, min_size=1, max_size=8))
    def test_out_may_alias_input(self, values):
        a = as_arr(values)
        expected = ring_neg(a)
        result = ring_neg(a, out=a)
        assert result is a
        assert np.array_equal(result, expected)
