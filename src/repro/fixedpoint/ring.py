"""Elementwise and matrix operations in Z_{2^64}.

``numpy.uint64`` addition/subtraction/multiplication already wrap modulo
2^64, which is exactly the ring arithmetic we need.  The helpers here
exist to (a) centralise the intentional-overflow sites so the rest of the
codebase stays warning-clean, and (b) supply a *fast* ring matmul: NumPy
routes integer matmul through a scalar inner loop (no BLAS), which is two
orders of magnitude slower than dgemm at the sizes secure training uses.

Fast ring matmul: exact 3-limb decomposition over float64 BLAS
--------------------------------------------------------------
Write each operand as three limbs of 22, 22 and 20 bits,
``x = x_0 + x_1 * 2^22 + x_2 * 2^44``.  Then

    (a @ b) mod 2^64 = sum_{i+j <= 2} (a_i @ b_j) << 22*(i+j)   (mod 2^64)

because limb pairs with ``i + j >= 3`` only contribute multiples of 2^66.
That is six dgemms; four 16-bit limbs would need ten.  Every entry of a
limb matrix is at most ``2^22 - 1``, so a partial product summed over an
inner dimension ``k`` is at most ``k * (2^22 - 1)^2``.  float64 holds
integers exactly below 2^53, which is the bound for ``k = CHUNK_K = 512``:
``512 * (2^22 - 1)^2 < 2^53 < 513 * (2^22 - 1)^2``.  Three limbs cannot be
narrower than 22 bits and still cover 64, so 512 is the widest chunk a
six-product kernel can sum exactly; wider inner dimensions are cut into
512-column chunks.  Each chunk's dgemms are exact, and chunks and shifted
products are added in uint64, where shifts and sums wrap as required.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_matmul_compatible, check_stacked_matmul_compatible

RING_DTYPE = np.uint64
LIMB_BITS = 22
# Widest inner dimension whose limb partial sums stay exact in float64:
# CHUNK_K * (2**LIMB_BITS - 1)**2 < 2**53 (tests/test_ring.py asserts it).
CHUNK_K = 512
_LIMB_MASK = np.uint64((1 << LIMB_BITS) - 1)


def _as_ring(x: np.ndarray) -> np.ndarray:
    """View/convert an integer array as ring elements (uint64)."""
    arr = np.asarray(x)
    if arr.dtype == RING_DTYPE:
        return arr
    if not np.issubdtype(arr.dtype, np.integer):
        raise TypeError(f"ring operations require integer arrays, got dtype {arr.dtype}")
    return arr.astype(RING_DTYPE, copy=False)


def ring_add(a: np.ndarray, b: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """a + b in Z_{2^64} (elementwise, broadcasting allowed).

    ``out=`` writes the result into an existing uint64 array (which may
    alias an operand), skipping the intermediate allocation — the fast
    path the triplet pool and the GEMM scheduler use on their hot loops.
    """
    a, b = _as_ring(a), _as_ring(b)
    with np.errstate(over="ignore"):
        if out is None:
            return a + b
        return np.add(a, b, out=out)


def ring_sub(a: np.ndarray, b: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """a - b in Z_{2^64} (``out=`` as in :func:`ring_add`)."""
    a, b = _as_ring(a), _as_ring(b)
    with np.errstate(over="ignore"):
        if out is None:
            return a - b
        return np.subtract(a, b, out=out)


def ring_neg(a: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """-a in Z_{2^64} (``out=`` as in :func:`ring_add`; may alias ``a``)."""
    a = _as_ring(a)
    with np.errstate(over="ignore"):
        if out is None:
            return np.uint64(0) - a
        return np.subtract(np.uint64(0), a, out=out)


def ring_mul(a: np.ndarray, b: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise a * b in Z_{2^64} (``out=`` as in :func:`ring_add`)."""
    a, b = _as_ring(a), _as_ring(b)
    with np.errstate(over="ignore"):
        if out is None:
            return a * b
        return np.multiply(a, b, out=out)


def ring_sum(a: np.ndarray, axis=None) -> np.ndarray:
    """Sum of ring elements along ``axis`` (wraps modulo 2^64)."""
    a = _as_ring(a)
    with np.errstate(over="ignore"):
        return a.sum(axis=axis, dtype=RING_DTYPE)


def _limb_planes(x: np.ndarray) -> np.ndarray:
    """Split uint64 ``x`` into float64 limb planes, shape ``(3, *x.shape)``.

    A transposed view of a contiguous array (``op(A)`` of a device
    buffer: ``X^T`` in ``dW``, ``W^T`` in ``dX``) is split where its
    bytes lie and handed on as transposed planes, which dgemm reads
    natively — no strided pass over the operand and no copy of it.
    """
    if x.ndim >= 2 and not x.flags.c_contiguous:
        base = np.swapaxes(x, -1, -2)
        if base.flags.c_contiguous:
            return np.swapaxes(_limb_planes(base), -1, -2)
    planes = np.empty((3, *x.shape), dtype=np.float64)
    scratch = np.empty(x.shape, dtype=RING_DTYPE)
    planes[0] = np.bitwise_and(x, _LIMB_MASK, out=scratch)
    np.right_shift(x, np.uint64(LIMB_BITS), out=scratch)
    planes[1] = np.bitwise_and(scratch, _LIMB_MASK, out=scratch)
    planes[2] = np.right_shift(x, np.uint64(2 * LIMB_BITS), out=scratch)
    return planes


def _ring_matmul_limbs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact ``a @ b`` in Z_{2^64} over the last two axes (2-D or stacked).

    The first product becomes the accumulator; an empty inner dimension
    has no first product and yields zeros.
    """
    a_planes, b_planes = _limb_planes(a), _limb_planes(b)
    result = None
    for start in range(0, a.shape[-1], CHUNK_K):
        stop = start + CHUNK_K
        for i in range(3):
            a_i = a_planes[i][..., start:stop]
            for j in range(3 - i):
                # Partial sums are exact integers < 2^53, so the uint64
                # conversion is lossless; the shift then wraps mod 2^64.
                part = np.matmul(a_i, b_planes[j][..., start:stop, :]).astype(RING_DTYPE)
                if i + j:
                    np.left_shift(part, np.uint64(LIMB_BITS * (i + j)), out=part)
                result = part if result is None else np.add(result, part, out=result)
    if result is None:
        return np.zeros((*a.shape[:-1], b.shape[-1]), dtype=RING_DTYPE)
    return result


def ring_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product a @ b in Z_{2^64} (exact, BLAS-backed).

    Uses the 3-limb decomposition described in the module docstring: six
    float64 dgemms per 512 columns of inner dimension.
    """
    a, b = _as_ring(a), _as_ring(b)
    check_matmul_compatible(a, b)
    return _ring_matmul_limbs(a, b)


def ring_matmul_batched(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked matrix product ``a[i] @ b[i]`` in Z_{2^64} for all i.

    ``a`` is (B, m, k) and ``b`` is (B, k, n); returns (B, m, n).  Same
    kernel as :func:`ring_matmul`, with each limb product one batched
    ``np.matmul`` over the whole stack instead of B separate calls — the
    dealer-side fusion the offline pool relies on.
    """
    a, b = _as_ring(a), _as_ring(b)
    check_stacked_matmul_compatible(a, b)
    return _ring_matmul_limbs(a, b)
