"""Zero-copy framed wire codec + per-round message coalescing.

The online hot path used to hand Python objects to the transport and
charge separately-estimated byte counts on the channels.  This module
makes the wire form explicit:

* **Frame codec** — ``encode_frame`` / ``decode_frame`` serialize a
  message as a fixed header (magic, tag, part kinds, dtype, shape)
  followed by the raw ``tobytes()`` buffers of its arrays.  Encoding is
  zero-copy: array bodies travel as memoryviews into the original
  buffers (never copied through pickle), and decoding returns
  ``np.frombuffer`` views into the received frame.  Pickle is the
  escape hatch only for leaves that are not arrays/bytes/sequences —
  and even then protocol 5 with out-of-band buffers keeps any arrays
  *inside* such leaves out of the pickle stream.
* **Exact sizing** — :func:`frame_sizes` computes a frame's wire size
  without materializing it, split into body (raw buffer bytes) and
  overhead (headers), so channels charge what actually crosses the
  transport and telemetry can report ``comm.frame_overhead_bytes``.
* **Fast checksums** — :func:`payload_checksum` CRCs the frame chunks
  incrementally (raw array buffers, no per-message ``pickle.dumps``),
  replacing the ReliableTransport hotspot.
* **Round coalescing** — :class:`RoundCoalescer` packs small same-round
  messages per directed link into one framed message (the Eq. 5 E/F
  pair being the dominant case), amortizing per-message latency.  A
  packed frame's body is the exact concatenation of its parts' bodies;
  transcript records keep the parts apart, which is the granularity the
  wire auditor de-duplicates at (see ``repro.audit.wire``).

The *canonical encoding* used for transcript digests
(:func:`canonical_bytes`) also lives here — it predates the frame codec
and its byte format is pinned by committed reference transcripts, so it
is kept verbatim and re-exported by :mod:`repro.audit.transcript`.
"""

from __future__ import annotations

import hashlib
import pickle
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from repro.util.errors import TransportError

# --------------------------------------------------------------------------
# Canonical encoding (transcript digests).  BYTE FORMAT IS PINNED: committed
# reference transcripts (tests/data/*.json) store digests over exactly these
# bytes — change the frame codec freely, never this encoding.
# --------------------------------------------------------------------------


def iter_arrays(obj: Any) -> Iterator[np.ndarray]:
    """Yield every ndarray reachable inside ``obj`` (depth-first).

    Mirrors the traversal the fault injector uses when corrupting
    payloads, so the auditor sees exactly the mutable wire content.
    """
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from iter_arrays(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from iter_arrays(v)
    elif hasattr(obj, "__dict__"):
        for v in vars(obj).values():
            yield from iter_arrays(v)


def canonical_bytes(payload: Any) -> bytes:
    """A deterministic byte encoding of a message payload.

    Arrays hash as ``dtype|shape|buffer`` so a reshape or cast can never
    collide with the original; everything else falls back to pickle at a
    pinned protocol version.
    """
    if isinstance(payload, np.ndarray):
        arr = np.ascontiguousarray(payload)
        header = f"ndarray|{arr.dtype.str}|{arr.shape}|".encode()
        return header + arr.tobytes()
    if isinstance(payload, (bytes, bytearray)):
        return b"bytes|" + bytes(payload)
    if isinstance(payload, (list, tuple)) and payload and all(
        isinstance(p, np.ndarray) for p in payload
    ):
        return b"seq|" + b"".join(canonical_bytes(p) for p in payload)
    return b"pickle|" + pickle.dumps(payload, protocol=4)


def content_parts(payload: Any) -> tuple[bytes, ...]:
    """The raw observable buffer bytes of ``payload``, one entry per array.

    An array is one protocol message part — an ``E`` or an ``F`` of a
    packed round frame — which is the granularity the wire auditor
    de-duplicates at.
    """
    if isinstance(payload, (bytes, bytearray)):
        return (bytes(payload),)
    return tuple(np.ascontiguousarray(a).tobytes() for a in iter_arrays(payload))


def content_bytes(payload: Any) -> bytes:
    """The raw observable buffer bytes of ``payload`` (for wire audits)."""
    return b"".join(content_parts(payload))


def payload_digest(payload: Any) -> str:
    return hashlib.blake2b(canonical_bytes(payload), digest_size=16).hexdigest()


# --------------------------------------------------------------------------
# Frame codec
# --------------------------------------------------------------------------

#: Frame magic: "RePro Wire" + format version.
MAGIC = b"RPW1"

_KIND_ND = 0
_KIND_BYTES = 1
_KIND_LIST = 2
_KIND_TUPLE = 3
_KIND_NONE = 4
_KIND_STR = 5
_KIND_PICKLE = 6

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")


def _array_body(arr: np.ndarray) -> memoryview:
    """A flat byte view of a contiguous array (no copy)."""
    if arr.size == 0:
        return memoryview(b"")
    return memoryview(np.ascontiguousarray(arr)).cast("B")


def _emit(payload: Any, chunks: list) -> None:
    """Append one payload's encoded chunks.

    Invariant the sizing/overhead accounting relies on: header chunks
    are ``bytes``, raw buffer bodies are ``memoryview`` — a chunk's type
    says which side of the body/overhead split it lands on.
    """
    if isinstance(payload, np.ndarray) and not payload.dtype.hasobject:
        dt = payload.dtype.str.encode("ascii")
        head = bytearray(_U8.pack(_KIND_ND))
        head += _U8.pack(len(dt))
        head += dt
        head += _U8.pack(payload.ndim)
        for dim in payload.shape:
            head += _I64.pack(dim)
        chunks.append(bytes(head))
        chunks.append(_array_body(payload))
        return
    if isinstance(payload, (bytes, bytearray)):
        chunks.append(_U8.pack(_KIND_BYTES) + _U64.pack(len(payload)))
        chunks.append(memoryview(bytes(payload)))
        return
    if isinstance(payload, (list, tuple)):
        kind = _KIND_LIST if isinstance(payload, list) else _KIND_TUPLE
        chunks.append(_U8.pack(kind) + _U32.pack(len(payload)))
        for item in payload:
            _emit(item, chunks)
        return
    if payload is None:
        chunks.append(_U8.pack(_KIND_NONE))
        return
    if isinstance(payload, str):
        body = payload.encode("utf-8")
        chunks.append(_U8.pack(_KIND_STR) + _U32.pack(len(body)) + body)
        return
    # Escape hatch: pickle the leaf, but keep any arrays inside it out of
    # the pickle stream via protocol-5 out-of-band buffers (raw bodies).
    buffers: list = []
    skeleton = pickle.dumps(payload, protocol=5, buffer_callback=buffers.append)
    chunks.append(
        _U8.pack(_KIND_PICKLE) + _U64.pack(len(skeleton)) + skeleton + _U32.pack(len(buffers))
    )
    for buf in buffers:
        view = buf.raw() if hasattr(buf, "raw") else memoryview(buf)
        chunks.append(_U64.pack(view.nbytes))
        chunks.append(view)


def _frame_chunks(tag: str, payload: Any) -> list:
    tag_bytes = tag.encode("utf-8")
    if len(tag_bytes) > 0xFFFF:
        raise TransportError(f"frame tag too long ({len(tag_bytes)} bytes)")
    chunks: list = [MAGIC + _U8.pack(0) + _U16.pack(len(tag_bytes)) + tag_bytes]
    _emit(payload, chunks)
    return chunks


def encode_frame(tag: str, payload: Any) -> bytes:
    """Serialize one message as a framed byte string."""
    return b"".join(_frame_chunks(tag, payload))


@dataclass(frozen=True)
class FramedSizes:
    """Exact wire size of a frame, split body vs header overhead."""

    nbytes: int
    body_nbytes: int

    @property
    def overhead_nbytes(self) -> int:
        return self.nbytes - self.body_nbytes


def frame_sizes(tag: str, payload: Any) -> FramedSizes:
    """Wire size of ``encode_frame(tag, payload)`` without building it.

    Body = raw buffer bytes (array/bytes/out-of-band pickle buffers);
    overhead = everything else (magic, tag, kinds, dtypes, shapes,
    pickle skeletons).
    """
    body = 0
    total = 0
    for chunk in _frame_chunks(tag, payload):
        if isinstance(chunk, memoryview):
            body += chunk.nbytes
            total += chunk.nbytes
        else:
            total += len(chunk)
    return FramedSizes(nbytes=total, body_nbytes=body)


def blob_frame_sizes(tag: str, nbytes: int) -> FramedSizes:
    """Framed size of an opaque ``nbytes`` blob (size-only rounds).

    The GMW comparison traffic is costed in aggregate — its per-round
    bit content is never materialized — so it frames as one BYTES part.
    """
    header = len(MAGIC) + 1 + 2 + len(tag.encode("utf-8")) + 1 + 8
    return FramedSizes(nbytes=header + int(nbytes), body_nbytes=int(nbytes))


def payload_checksum(payload: Any) -> int:
    """CRC-32 over the framed encoding of ``payload``.

    Accumulated chunk-by-chunk: array buffers are hashed raw and never
    pass through ``pickle.dumps`` (the historical per-frame hotspot);
    pickle only fires for irreducible non-array leaves.  Checksums are
    compared within one process only — no cross-version stability is
    promised (transcript digests, which *are* pinned, use
    :func:`canonical_bytes`).
    """
    crc = 0
    for chunk in _frame_chunks("", payload):
        crc = zlib.crc32(chunk, crc)
    return crc


class _FrameReader:
    """Sequential parser over one encoded frame."""

    def __init__(self, data, copy: bool):
        self._view = memoryview(data).cast("B")
        self._pos = 0
        self._copy = copy

    def take(self, n: int) -> memoryview:
        if self._pos + n > len(self._view):
            raise TransportError("truncated frame")
        out = self._view[self._pos : self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return _U8.unpack(self.take(1))[0]

    def u16(self) -> int:
        return _U16.unpack(self.take(2))[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self.take(8))[0]

    def i64(self) -> int:
        return _I64.unpack(self.take(8))[0]

    @property
    def exhausted(self) -> bool:
        return self._pos == len(self._view)

    def value(self) -> Any:
        kind = self.u8()
        if kind == _KIND_ND:
            dt = np.dtype(bytes(self.take(self.u8())).decode("ascii"))
            shape = tuple(self.i64() for _ in range(self.u8()))
            nbytes = dt.itemsize * int(np.prod(shape, dtype=np.int64))
            body = self.take(nbytes)
            arr = np.frombuffer(body, dtype=dt).reshape(shape)
            return arr.copy() if self._copy else arr
        if kind == _KIND_BYTES:
            return bytes(self.take(self.u64()))
        if kind in (_KIND_LIST, _KIND_TUPLE):
            items = [self.value() for _ in range(self.u32())]
            return items if kind == _KIND_LIST else tuple(items)
        if kind == _KIND_NONE:
            return None
        if kind == _KIND_STR:
            return bytes(self.take(self.u32())).decode("utf-8")
        if kind == _KIND_PICKLE:
            skeleton = bytes(self.take(self.u64()))
            buffers = [self.take(self.u64()) for _ in range(self.u32())]
            return pickle.loads(skeleton, buffers=buffers)
        raise TransportError(f"unknown frame part kind {kind}")


def decode_frame(data, *, copy: bool = False) -> tuple[str, Any]:
    """Parse one frame back into ``(tag, payload)``.

    With ``copy=False`` (default) decoded arrays are read-only
    ``np.frombuffer`` views into ``data`` — zero-copy; pass
    ``copy=True`` for independent writable arrays.
    """
    reader = _FrameReader(data, copy)
    if bytes(reader.take(len(MAGIC))) != MAGIC:
        raise TransportError("bad frame magic")
    reader.u8()  # flags (reserved)
    tag = bytes(reader.take(reader.u16())).decode("utf-8")
    payload = reader.value()
    if not reader.exhausted:
        raise TransportError("trailing bytes after frame payload")
    return tag, payload


# --------------------------------------------------------------------------
# Round coalescing
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PackedFrame:
    """All of one directed link's messages for one round, as one frame.

    The encoded form is a frame whose payload is the tuple of
    ``(tag, payload)`` pairs in send order, so the packed body is the
    exact concatenation of the parts' bodies — unpacking preserves both
    order and bits.
    """

    src: str
    dst: str
    round_id: str
    parts: tuple[tuple[str, Any], ...]

    @property
    def n_parts(self) -> int:
        return len(self.parts)

    @property
    def sizes(self) -> FramedSizes:
        return frame_sizes(self.round_id, self.parts)

    def encode(self) -> bytes:
        return encode_frame(self.round_id, self.parts)


def unpack_frame(data, *, copy: bool = False) -> tuple[str, tuple[tuple[str, Any], ...]]:
    """Inverse of :meth:`PackedFrame.encode`: ``(round_id, parts)``."""
    round_id, parts = decode_frame(data, copy=copy)
    return round_id, tuple(parts)


class RoundCoalescer:
    """Collects one round's sends and packs them per directed link.

    Protocol code ``add``s every message of a round (send order
    preserved per link), then ``flush``es to get one
    :class:`PackedFrame` per ``(src, dst)`` — links in first-send
    order.  The coalescer is pure packing machinery: charging the
    packed frame on a channel and recording it stays with the caller.
    """

    def __init__(self, round_id: str):
        self.round_id = round_id
        self._pending: dict[tuple[str, str], list[tuple[str, Any]]] = {}

    def __len__(self) -> int:
        return sum(len(parts) for parts in self._pending.values())

    def add(self, src: str, dst: str, tag: str, payload: Any) -> None:
        if src == dst:
            raise TransportError(f"coalescer: src == dst ({src!r})")
        self._pending.setdefault((src, dst), []).append((tag, payload))

    def flush(self) -> list[PackedFrame]:
        frames = [
            PackedFrame(src=src, dst=dst, round_id=self.round_id, parts=tuple(parts))
            for (src, dst), parts in self._pending.items()
        ]
        self._pending.clear()
        return frames


__all__ = [
    "MAGIC",
    "FramedSizes",
    "PackedFrame",
    "RoundCoalescer",
    "blob_frame_sizes",
    "canonical_bytes",
    "content_bytes",
    "content_parts",
    "decode_frame",
    "encode_frame",
    "frame_sizes",
    "iter_arrays",
    "payload_checksum",
    "payload_digest",
    "unpack_frame",
]
