"""Compressed Sparse Row codec, from scratch.

The paper transmits sparse deltas "using the compressed sparse row
format (CSR)" (Section 4.4).  We implement the codec directly rather
than via scipy so the byte accounting is exact and under our control:

* ``indptr``  — int64, ``n_rows + 1`` entries;
* ``indices`` — int32 column ids (the paper's matrices stay far below
  2^31 columns);
* ``data``    — the nonzero values in row-major order, any dtype.

``csr_nbytes`` is the wire size the compression layer compares against
the dense size to decide whether compressing pays off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.errors import ShapeError
from repro.util.validation import check_matrix


@dataclass(frozen=True)
class CSRMatrix:
    """An encoded sparse matrix."""

    shape: tuple[int, int]
    indptr: np.ndarray  # int64 (n_rows + 1,)
    indices: np.ndarray  # int32 (nnz,)
    data: np.ndarray  # (nnz,)

    @property
    def nbytes(self) -> int:
        return int(self.indptr.nbytes + self.indices.nbytes + self.data.nbytes)


def csr_encode(dense: np.ndarray) -> CSRMatrix:
    """Encode a 2-D array; zeros (exact) are dropped."""
    check_matrix(dense, "dense")
    mask = dense != 0
    counts = mask.sum(axis=1)
    indptr = np.zeros(dense.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    rows, cols = np.nonzero(mask)
    return CSRMatrix(
        shape=dense.shape,
        indptr=indptr,
        indices=cols.astype(np.int32),
        data=dense[rows, cols].copy(),
    )


def csr_decode(csr: CSRMatrix) -> np.ndarray:
    """Decode back to dense; exact inverse of :func:`csr_encode`."""
    n_rows, n_cols = csr.shape
    if csr.indptr.shape != (n_rows + 1,):
        raise ShapeError(
            f"indptr length {csr.indptr.shape[0]} does not match {n_rows} rows"
        )
    out = np.zeros(csr.shape, dtype=csr.data.dtype)
    rows = np.repeat(np.arange(n_rows), np.diff(csr.indptr))
    out[rows, csr.indices] = csr.data
    return out


def csr_nbytes(dense: np.ndarray) -> int:
    """Wire size if ``dense`` were CSR-encoded (without encoding it)."""
    nnz = int(np.count_nonzero(dense))
    n_rows = dense.shape[0]
    return (n_rows + 1) * 8 + nnz * 4 + nnz * dense.dtype.itemsize


def dense_nbytes(dense: np.ndarray) -> int:
    """Wire size of the raw matrix."""
    return int(dense.nbytes)
