"""Shape-manipulation kernels shared by the secure and plain stacks.

``im2col``/``col2im`` lower a convolution to one dense GEMM — the
standard GPU strategy, and the one ParSecureML relies on: a convolution
becomes a *triplet multiplication* after lowering, so the same Beaver
machinery protects it.  Crucially the lowering itself is data-movement
only (gather/scatter), i.e. *linear*, so each server can apply it to its
additive share locally without interaction.

These functions are dtype-agnostic (they index, never multiply), so they
work on float images and on uint64 ring shares alike.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import ShapeError


def conv_output_size(h: int, w: int, kh: int, kw: int, stride: int = 1) -> tuple[int, int]:
    """Spatial output size of a VALID convolution."""
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ShapeError(
            f"kernel ({kh}x{kw}, stride {stride}) does not fit input ({h}x{w})"
        )
    return oh, ow


def _patch_indices(
    h: int, w: int, c: int, kh: int, kw: int, stride: int
) -> tuple[np.ndarray, int, int]:
    """Flat gather indices of shape (oh*ow, c*kh*kw) into an (h, w, c) image."""
    oh, ow = conv_output_size(h, w, kh, kw, stride)
    # index grid of one patch
    di, dj = np.meshgrid(np.arange(kh), np.arange(kw), indexing="ij")
    ci = np.arange(c)
    # (kh*kw*c,) offsets in flattened (h, w, c) layout
    patch = (di[..., None] * w * c + dj[..., None] * c + ci).reshape(-1)
    # top-left corners of every output location
    oi, oj = np.meshgrid(np.arange(oh) * stride, np.arange(ow) * stride, indexing="ij")
    corners = (oi * w * c + oj * c).reshape(-1)
    return corners[:, None] + patch[None, :], oh, ow


def im2col(images: np.ndarray, kh: int, kw: int, stride: int = 1) -> np.ndarray:
    """Lower a batch of images to patch-rows for a GEMM convolution.

    Parameters
    ----------
    images:
        Array of shape ``(n, h, w, c)`` (channels-last) of any dtype.
    Returns
    -------
    Array of shape ``(n * oh * ow, c * kh * kw)``: one row per output
    pixel, ready to be multiplied by a ``(c*kh*kw, out_channels)`` filter
    matrix.
    """
    if images.ndim != 4:
        raise ShapeError(f"im2col expects (n, h, w, c) input, got shape {images.shape}")
    n, h, w, c = images.shape
    idx, oh, ow = _patch_indices(h, w, c, kh, kw, stride)
    flat = images.reshape(n, h * w * c)
    cols = flat[:, idx]  # (n, oh*ow, c*kh*kw)
    return cols.reshape(n * oh * ow, c * kh * kw)


def col2im(
    cols: np.ndarray,
    images_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int = 1,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add patch-rows back to images.

    Needed by the convolution backward pass (gradient w.r.t. the input).
    Works in the ring too: scatter-add wraps modulo 2^64 on uint64.
    """
    n, h, w, c = images_shape
    idx, oh, ow = _patch_indices(h, w, c, kh, kw, stride)
    flat = np.zeros((n, h * w * c), dtype=cols.dtype)
    cols3 = cols.reshape(n, oh * ow, -1)
    for img, patches in zip(flat, cols3):
        np.add.at(img, idx.reshape(-1), patches.reshape(-1))
    return flat.reshape(images_shape)
