"""Compressed transmission for inter-server traffic (paper Section 4.4).

Across training iterations the masked values the servers exchange evolve
by the model's update deltas: with a fixed mask ``U_i``,

    E_{i,j+1} = A_{i,j+1} - U_i = E_{i,j} + Delta^A_{i,j}      (Eq. 11)

so instead of retransmitting ``E`` each epoch a server can send only the
delta — and when the delta is *sparse* (the paper's observations: ReLU
zeros, vanishing gradients late in training and in early layers), CSR
encoding shrinks it further.

:class:`DeltaCompressor` implements the sender side decision procedure
(paper "Detailed Design"): keep the last transmitted matrix per stream
key; if the delta's zero fraction reaches the threshold (75 % default)
send a CSR-coded delta, otherwise send the dense matrix.  The receiver
(:meth:`DeltaCompressor.decode`) mirrors the state so the reconstruction
is exact.  ``CompressionStats`` records raw-vs-wire bytes — the Fig. 16
measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from repro.comm.csr import CSRMatrix, csr_decode, csr_encode, csr_nbytes, dense_nbytes
from repro.telemetry.registry import MetricRegistry
from repro.util.errors import ProtocolError
from repro.util.validation import check_probability


@dataclass
class CompressedPayload:
    """What actually travels: either a dense matrix or a CSR delta."""

    kind: Literal["dense", "csr_delta"]
    key: str
    dense: np.ndarray | None = None
    delta: CSRMatrix | None = None

    @property
    def wire_bytes(self) -> int:
        if self.kind == "dense":
            return dense_nbytes(self.dense)
        return self.delta.nbytes

    @property
    def raw_bytes(self) -> int:
        """Bytes an uncompressed transmission would have cost."""
        if self.kind == "dense":
            return dense_nbytes(self.dense)
        n_rows, n_cols = self.delta.shape
        return n_rows * n_cols * self.delta.data.dtype.itemsize

    def wire_view(self):
        """What the frame codec serializes for this payload.

        Dense sends frame the matrix itself; CSR deltas frame the three
        index/value arrays plus the stream metadata the receiver's state
        machine needs.  The size the channel charges is the exact frame
        over this view (what actually crosses the wire); ``wire_bytes``
        is the header-less body size behind the Fig. 16 raw-vs-wire
        statistics.
        """
        if self.kind == "dense":
            return self.dense
        d = self.delta
        return (self.kind, self.key, d.shape, d.indptr, d.indices, d.data)


@dataclass
class CompressionStats:
    """Aggregate raw-vs-wire accounting (drives Fig. 16)."""

    raw_bytes: int = 0
    wire_bytes: int = 0
    dense_messages: int = 0
    compressed_messages: int = 0

    @property
    def savings_fraction(self) -> float:
        if self.raw_bytes == 0:
            return 0.0
        return 1.0 - self.wire_bytes / self.raw_bytes

    def merge(self, other: "CompressionStats") -> "CompressionStats":
        return CompressionStats(
            raw_bytes=self.raw_bytes + other.raw_bytes,
            wire_bytes=self.wire_bytes + other.wire_bytes,
            dense_messages=self.dense_messages + other.dense_messages,
            compressed_messages=self.compressed_messages + other.compressed_messages,
        )


class DeltaCompressor:
    """Sender/receiver state machine for compressed transmission.

    One instance per *direction* per server pair; ``key`` identifies the
    logical stream (e.g. ``"layer2/F"``) whose history makes deltas
    meaningful.  With a ``telemetry`` the counters land in the shared
    registry under ``comm.compression.*{direction}``; :attr:`stats`
    remains the historical read-out as a view over those series.
    """

    def __init__(
        self,
        sparsity_threshold: float = 0.75,
        *,
        enabled: bool = True,
        telemetry=None,
        direction: str = "default",
    ):
        self.sparsity_threshold = check_probability(sparsity_threshold, "sparsity_threshold")
        self.enabled = bool(enabled)
        self.direction = direction
        self._sent_history: dict[str, np.ndarray] = {}
        self._recv_history: dict[str, np.ndarray] = {}
        registry = telemetry.registry if telemetry is not None else MetricRegistry()
        self._raw = registry.counter(
            "comm.compression.raw_bytes", "bytes an uncompressed transmission would cost"
        )
        self._wire = registry.counter("comm.compression.wire_bytes", "bytes actually sent")
        self._dense = registry.counter(
            "comm.compression.dense_messages", "messages sent dense"
        )
        self._compressed = registry.counter(
            "comm.compression.compressed_messages", "messages sent as CSR deltas"
        )

    @property
    def stats(self) -> CompressionStats:
        """This direction's accounting as the historical dataclass."""
        d = self.direction
        return CompressionStats(
            raw_bytes=int(self._raw.value(direction=d)),
            wire_bytes=int(self._wire.value(direction=d)),
            dense_messages=int(self._dense.value(direction=d)),
            compressed_messages=int(self._compressed.value(direction=d)),
        )

    # -- sender ---------------------------------------------------------------

    def encode(self, key: str, matrix: np.ndarray) -> CompressedPayload:
        """Decide dense vs CSR-delta for this transmission and record it."""
        matrix = np.ascontiguousarray(matrix)
        previous = self._sent_history.get(key)
        payload: CompressedPayload
        if self.enabled and previous is not None and previous.shape == matrix.shape:
            with np.errstate(over="ignore"):
                delta = matrix - previous
            zero_fraction = 1.0 - np.count_nonzero(delta) / max(delta.size, 1)
            if (
                zero_fraction >= self.sparsity_threshold
                and csr_nbytes(delta) < dense_nbytes(matrix)
            ):
                payload = CompressedPayload(kind="csr_delta", key=key, delta=csr_encode(delta))
            else:
                payload = CompressedPayload(kind="dense", key=key, dense=matrix)
        else:
            payload = CompressedPayload(kind="dense", key=key, dense=matrix)
        self._sent_history[key] = matrix
        self._raw.inc(payload.raw_bytes, direction=self.direction)
        self._wire.inc(payload.wire_bytes, direction=self.direction)
        if payload.kind == "dense":
            self._dense.inc(1, direction=self.direction)
        else:
            self._compressed.inc(1, direction=self.direction)
        return payload

    def reset_stream_state(self) -> None:
        """Forget per-stream delta history (counters are kept).

        Fault recovery calls this after a party restart: a send
        interrupted between ``encode`` and ``decode`` leaves the two
        histories desynchronised, so the session is renegotiated from
        dense — exactly what a reconnecting peer would do.
        """
        self._sent_history.clear()
        self._recv_history.clear()

    # -- receiver -------------------------------------------------------------

    def decode(self, payload: CompressedPayload) -> np.ndarray:
        """Reconstruct the transmitted matrix on the receiving side."""
        if payload.kind == "dense":
            matrix = payload.dense
        else:
            previous = self._recv_history.get(payload.key)
            if previous is None:
                raise ProtocolError(
                    f"received delta for stream {payload.key!r} with no prior dense state"
                )
            with np.errstate(over="ignore"):
                matrix = previous + csr_decode(payload.delta)
        self._recv_history[payload.key] = matrix
        return matrix
