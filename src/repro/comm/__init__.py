"""Inter-node communication substrate.

Replaces the paper's MPI-over-InfiniBand layer with byte-exact simulated
channels:

* :mod:`repro.comm.channel` — a bandwidth/latency link on the shared
  :class:`~repro.simgpu.clock.SimClock`, counting every byte;
* :mod:`repro.comm.csr` — a from-scratch CSR codec (the paper compresses
  sparse deltas in compressed-sparse-row form before transmission);
* :mod:`repro.comm.compression` — the delta + sparsity-threshold
  compressed-transmission protocol of paper Section 4.4 (Eqs. 10-12);
* :mod:`repro.comm.wire` — the zero-copy framed codec, exact frame
  sizing and per-round message coalescing.
"""

from repro.comm.channel import Channel, LinkSpec, INFINIBAND_100G, ETHERNET_10G
from repro.comm.csr import CSRMatrix, csr_encode, csr_decode, csr_nbytes, dense_nbytes
from repro.comm.compression import DeltaCompressor, CompressedPayload, CompressionStats
from repro.comm.wire import (
    FramedSizes,
    PackedFrame,
    RoundCoalescer,
    blob_frame_sizes,
    decode_frame,
    encode_frame,
    frame_sizes,
    unpack_frame,
)

__all__ = [
    "Channel",
    "LinkSpec",
    "INFINIBAND_100G",
    "ETHERNET_10G",
    "CSRMatrix",
    "csr_encode",
    "csr_decode",
    "csr_nbytes",
    "dense_nbytes",
    "DeltaCompressor",
    "CompressedPayload",
    "CompressionStats",
    "FramedSizes",
    "PackedFrame",
    "RoundCoalescer",
    "blob_frame_sizes",
    "decode_frame",
    "encode_frame",
    "frame_sizes",
    "unpack_frame",
]
