"""CSR delta-compression path under one-hot / sparse operands.

The recsys workload's one-hot operands and repeated streams are where
this machinery's edges show (a static stream re-sent after a restart
collapses to an all-zero CSR delta), so the decision procedure gets
dedicated coverage here:

* one-hot matrices round-trip through the codec and their wire size
  follows the documented ``(rows+1)*8 + nnz*4 + nnz*itemsize`` formula;
* the sparsity threshold is inclusive: a delta at *exactly* 75 % zeros
  compresses, one nonzero more falls back to dense;
* an all-zero delta (a repeated static stream) ships as an empty CSR
  frame of ``(rows+1)*8`` bytes and decodes back exactly;
* raw-vs-wire accounting reconciles against the dense cost on both
  branches of the decision.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.compression import DeltaCompressor
from repro.comm.csr import csr_decode, csr_encode, csr_nbytes, dense_nbytes

RING = np.uint64


def _one_hot(rows: int, cols: int, *, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = np.zeros((rows, cols), dtype=RING)
    m[np.arange(rows), rng.integers(0, cols, size=rows)] = RING(1)
    return m


class TestCSRCodec:
    def test_one_hot_roundtrip(self):
        m = _one_hot(16, 64, seed=3)
        csr = csr_encode(m)
        assert csr.nnz == 16
        np.testing.assert_array_equal(csr_decode(csr), m)

    def test_one_hot_byte_formula(self):
        m = _one_hot(16, 64, seed=4)
        csr = csr_encode(m)
        expected = (16 + 1) * 8 + 16 * 4 + 16 * m.dtype.itemsize
        assert csr.nbytes == expected
        assert csr_nbytes(m) == expected
        assert csr.nbytes < dense_nbytes(m)

    def test_all_zero_matrix_encodes_to_indptr_only(self):
        m = np.zeros((8, 32), dtype=RING)
        csr = csr_encode(m)
        assert csr.nnz == 0
        assert csr.nbytes == (8 + 1) * 8
        np.testing.assert_array_equal(csr_decode(csr), m)


class TestThresholdBoundary:
    ROWS, COLS = 8, 64  # 512 elements; 25% nonzero = 128

    def _send_pair(self, nnz_delta: int):
        """First a dense baseline, then a delta with ``nnz_delta`` nonzeros."""
        comp = DeltaCompressor(0.75)
        base = _one_hot(self.ROWS, self.COLS, seed=1)
        first = comp.encode("s", base)
        assert first.kind == "dense"  # no history yet
        nxt = base.copy()
        flat = nxt.reshape(-1)
        flat[:nnz_delta] += RING(1)
        return comp, comp.encode("s", nxt), nxt

    def test_exactly_at_threshold_compresses(self):
        _, payload, _ = self._send_pair(nnz_delta=128)  # zero fraction == 0.75
        assert payload.kind == "csr_delta"
        assert payload.delta.nnz == 128

    def test_one_past_threshold_goes_dense(self):
        _, payload, _ = self._send_pair(nnz_delta=129)  # zero fraction < 0.75
        assert payload.kind == "dense"

    def test_receiver_reconstructs_across_the_boundary(self):
        from repro.comm.compression import CompressedPayload

        _, payload, expected = self._send_pair(nnz_delta=128)
        recv = DeltaCompressor(0.75)
        base = _one_hot(self.ROWS, self.COLS, seed=1)
        recv.decode(CompressedPayload(kind="dense", key="s", dense=base))
        np.testing.assert_array_equal(recv.decode(payload), expected)


class TestAccounting:
    def test_zero_delta_stream_is_charged_indptr_only(self):
        comp = DeltaCompressor(0.75)
        m = _one_hot(8, 64, seed=2)
        comp.encode("table/F", m)
        repeat = comp.encode("table/F", m.copy())
        assert repeat.kind == "csr_delta"
        assert repeat.delta.nnz == 0
        assert repeat.wire_bytes == (8 + 1) * 8
        assert repeat.raw_bytes == dense_nbytes(m)

    def test_stats_reconcile_raw_vs_wire(self):
        comp = DeltaCompressor(0.75)
        m = _one_hot(8, 64, seed=5)
        comp.encode("k", m)  # dense
        comp.encode("k", m.copy())  # all-zero delta
        stats = comp.stats
        assert stats.dense_messages == 1
        assert stats.compressed_messages == 1
        assert stats.raw_bytes == 2 * dense_nbytes(m)
        assert stats.wire_bytes == dense_nbytes(m) + (8 + 1) * 8
        assert 0.0 < stats.savings_fraction < 1.0

    def test_disabled_compressor_never_compresses(self):
        comp = DeltaCompressor(0.75, enabled=False)
        m = _one_hot(8, 64, seed=6)
        comp.encode("k", m)
        repeat = comp.encode("k", m.copy())
        assert repeat.kind == "dense"
        assert comp.stats.wire_bytes == comp.stats.raw_bytes
