"""im2col/col2im lowering kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simgpu.kernels import col2im, conv_output_size, im2col
from repro.util.errors import ShapeError


def naive_conv(images, filters, kh, kw, stride):
    """Direct convolution reference (channels-last, VALID)."""
    n, h, w, c = images.shape
    oh, ow = conv_output_size(h, w, kh, kw, stride)
    out_c = filters.shape[1]
    out = np.zeros((n, oh, ow, out_c))
    for b in range(n):
        for i in range(oh):
            for j in range(ow):
                patch = images[b, i * stride : i * stride + kh, j * stride : j * stride + kw, :]
                out[b, i, j] = patch.reshape(-1) @ filters
    return out


class TestIm2col:
    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(1, 3),  # batch
        st.integers(4, 9),  # h
        st.integers(4, 9),  # w
        st.integers(1, 3),  # channels
        st.integers(1, 3),  # kernel
        st.integers(1, 2),  # stride
        st.integers(0, 1000),
    )
    def test_gemm_conv_equals_naive(self, n, h, w, c, k, stride, seed):
        rng = np.random.default_rng(seed)
        images = rng.normal(size=(n, h, w, c))
        out_c = 2
        filters = rng.normal(size=(k * k * c, out_c))
        cols = im2col(images, k, k, stride)
        oh, ow = conv_output_size(h, w, k, k, stride)
        via_gemm = (cols @ filters).reshape(n, oh, ow, out_c)
        np.testing.assert_allclose(via_gemm, naive_conv(images, filters, k, k, stride))

    def test_uint64_dtype_preserved(self, rng):
        images = rng.integers(0, 2**64, size=(2, 5, 5, 1), dtype=np.uint64)
        cols = im2col(images, 3, 3)
        assert cols.dtype == np.uint64

    def test_im2col_is_linear_over_shares(self, rng):
        """The property the secure conv relies on: lowering commutes with
        additive sharing."""
        a = rng.integers(0, 2**64, size=(1, 6, 6, 1), dtype=np.uint64)
        b = rng.integers(0, 2**64, size=(1, 6, 6, 1), dtype=np.uint64)
        with np.errstate(over="ignore"):
            combined = im2col(a + b, 3, 3)
            summed = im2col(a, 3, 3) + im2col(b, 3, 3)
        assert np.array_equal(combined, summed)

    def test_bad_input_dims(self, rng):
        with pytest.raises(ShapeError):
            im2col(rng.normal(size=(5, 5)), 3, 3)

    def test_kernel_too_big(self, rng):
        with pytest.raises(ShapeError):
            im2col(rng.normal(size=(1, 4, 4, 1)), 5, 5)


class TestCol2im:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(4, 8), st.integers(1, 3), st.integers(1, 2), st.integers(0, 500))
    def test_adjoint_property(self, h, k, stride, seed):
        """<im2col(x), y> == <x, col2im(y)> — the defining property of the
        conv backward pass."""
        if (h - k) % stride != 0 and (h - k) // stride < 1:
            return
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, h, h, 1))
        cols_shape = im2col(x, k, k, stride).shape
        y = rng.normal(size=cols_shape)
        lhs = float((im2col(x, k, k, stride) * y).sum())
        rhs = float((x * col2im(y, x.shape, k, k, stride)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_uint64_scatter_wraps(self, rng):
        cols = np.full((4, 4), 2**63, dtype=np.uint64)
        out = col2im(cols, (1, 3, 3, 1), 2, 2, 1)
        assert out.dtype == np.uint64  # no overflow error raised
