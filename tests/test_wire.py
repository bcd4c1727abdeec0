"""The framed wire codec: round-trips, exact sizing, coalescing, checksums.

Property-based coverage (hypothesis) of the encode/decode pair over
arbitrary dtypes, shapes (including empty and 0-d) and nested payloads;
exactness of :func:`frame_sizes` against the materialized frame; the
coalescer's order-preservation contract; and the frame-CRC checksum
that replaced the per-message pickle in the reliable transport.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.wire import (
    MAGIC,
    RoundCoalescer,
    blob_frame_sizes,
    content_bytes,
    decode_frame,
    encode_frame,
    frame_sizes,
    payload_checksum,
    unpack_frame,
)
from repro.util.errors import TransportError

DTYPES = (
    np.uint8, np.uint16, np.uint32, np.uint64,
    np.int8, np.int32, np.int64,
    np.float32, np.float64, np.bool_,
)


@dataclass
class Blob:
    """A non-array leaf for the pickle escape hatch (module-level: picklable)."""

    label: str
    data: np.ndarray


@dataclass
class Wrapped:
    """Marker wrapper, as the fault injector's tamper marker uses."""

    inner: object


@st.composite
def _array(draw):
    """Arbitrary-dtype arrays: 0-d, empty and up-to-3-d shapes."""
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    shape = tuple(draw(st.lists(st.integers(0, 4), min_size=0, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if dtype == np.bool_:
        return rng.integers(0, 2, size=shape).astype(np.bool_)
    n = int(np.prod(shape, dtype=np.int64))
    raw = rng.integers(0, 256, size=(n * dtype.itemsize,), dtype=np.uint8)
    return raw.view(dtype)[:n].reshape(shape).copy()


def payloads():
    """Nested payloads: arrays, bytes, strings, None, scalars, containers."""
    leaves = st.one_of(
        _array(),
        st.binary(max_size=64),
        st.text(max_size=16),
        st.none(),
        st.integers(-(2**40), 2**40),
        st.floats(allow_nan=False, allow_infinity=False, width=64),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3),
            st.lists(inner, max_size=3).map(tuple),
        ),
        max_leaves=8,
    )


def assert_payload_equal(a, b):
    assert type(a) is type(b) or (
        isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
    ), f"{type(a)} != {type(b)}"
    if isinstance(a, np.ndarray):
        # bit-exact, not value-equal: random float bytes include NaNs,
        # which np.array_equal reports as unequal to themselves
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_payload_equal(x, y)
    else:
        assert a == b


class TestCodecRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(payloads())
    def test_roundtrip_bit_identical(self, payload):
        tag, decoded = decode_frame(encode_frame("t", payload))
        assert tag == "t"
        assert_payload_equal(payload, decoded)

    @settings(max_examples=100, deadline=None)
    @given(payloads(), st.text(max_size=32))
    def test_sizes_match_materialized_frame(self, payload, tag):
        frame = encode_frame(tag, payload)
        sizes = frame_sizes(tag, payload)
        assert sizes.nbytes == len(frame)
        assert 0 <= sizes.body_nbytes <= sizes.nbytes
        assert sizes.overhead_nbytes == sizes.nbytes - sizes.body_nbytes

    @settings(max_examples=50, deadline=None)
    @given(_array())
    def test_array_body_travels_raw(self, arr):
        # the frame must contain the array's exact buffer bytes — the
        # zero-copy claim is only meaningful if nothing re-encodes them
        frame = encode_frame("t", arr)
        assert np.ascontiguousarray(arr).tobytes() in frame

    def test_decode_default_is_zero_copy_view(self):
        arr = np.arange(12, dtype=np.uint64).reshape(3, 4)
        frame = encode_frame("t", arr)
        _, decoded = decode_frame(frame)
        assert not decoded.flags.owndata  # view into the frame buffer
        _, copied = decode_frame(frame, copy=True)
        assert copied.flags.owndata

    def test_arrays_never_pass_through_pickle(self, monkeypatch):
        def boom(*a, **k):  # pragma: no cover - should never run
            raise AssertionError("array payload reached pickle")

        monkeypatch.setattr(pickle, "dumps", boom)
        payload = [np.arange(6, dtype=np.uint64), (np.zeros(3), b"x"), "tag", None]
        tag, decoded = decode_frame(encode_frame("t", payload))
        assert_payload_equal(payload, decoded)

    def test_pickle_escape_hatch_keeps_buffers_out_of_band(self):
        big = np.arange(4096, dtype=np.uint64)
        sizes = frame_sizes("t", Blob("x", big))
        # body (out-of-band buffer) carries the array; the pickle
        # skeleton in the overhead must stay tiny
        assert sizes.body_nbytes >= big.nbytes
        assert sizes.overhead_nbytes < 512
        _, decoded = decode_frame(encode_frame("t", Blob("x", big)))
        assert decoded.label == "x"
        assert np.array_equal(decoded.data, big)

    def test_bad_magic_rejected(self):
        with pytest.raises(TransportError, match="magic"):
            decode_frame(b"XXXX" + b"\x00" * 16)

    def test_truncated_frame_rejected(self):
        frame = encode_frame("t", np.arange(8, dtype=np.uint64))
        with pytest.raises(TransportError, match="truncated"):
            decode_frame(frame[:-3])

    def test_trailing_bytes_rejected(self):
        frame = encode_frame("t", None)
        with pytest.raises(TransportError, match="trailing"):
            decode_frame(frame + b"\x00")

    def test_blob_sizes_match_equivalent_bytes_frame(self):
        blob = blob_frame_sizes("cmp:rounds", 1000)
        real = frame_sizes("cmp:rounds", b"\x00" * 1000)
        assert blob.nbytes == real.nbytes
        assert blob.body_nbytes == real.body_nbytes


class TestCoalescer:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from(["a->b", "b->a", "a->c"]), _array()),
        min_size=1, max_size=8,
    ))
    def test_pack_unpack_preserves_per_link_order(self, sends):
        coalescer = RoundCoalescer("round0")
        expected: dict[tuple[str, str], list] = {}
        for i, (link, arr) in enumerate(sends):
            src, dst = link.split("->")
            coalescer.add(src, dst, f"msg{i}", arr)
            expected.setdefault((src, dst), []).append((f"msg{i}", arr))
        assert len(coalescer) == len(sends)
        frames = coalescer.flush()
        assert len(coalescer) == 0
        # one frame per link, links in first-send order
        assert [(fr.src, fr.dst) for fr in frames] == list(expected)
        for fr in frames:
            round_id, parts = unpack_frame(fr.encode())
            assert round_id == "round0"
            assert [t for t, _ in parts] == [t for t, _ in expected[(fr.src, fr.dst)]]
            for (_, got), (_, want) in zip(parts, expected[(fr.src, fr.dst)]):
                assert_payload_equal(want, got)

    def test_packed_body_is_concatenation_of_part_bodies(self):
        # a packed frame's observable content equals the parts' contents
        # back to back
        e = np.arange(16, dtype=np.uint64)
        f = np.arange(16, 32, dtype=np.uint64)
        assert content_bytes((e, f)) == content_bytes(e) + content_bytes(f)
        coalescer = RoundCoalescer("r")
        coalescer.add("a", "b", "E", e)
        coalescer.add("a", "b", "F", f)
        (frame,) = coalescer.flush()
        assert frame.sizes.body_nbytes == e.nbytes + f.nbytes
        assert frame.sizes.nbytes == len(frame.encode())
        assert frame.n_parts == 2

    def test_loopback_send_rejected(self):
        with pytest.raises(TransportError, match="src == dst"):
            RoundCoalescer("r").add("a", "a", "t", None)


class TestChecksum:
    def test_detects_single_bit_flip(self):
        arr = np.arange(64, dtype=np.uint64)
        before = payload_checksum(arr)
        arr[17] ^= np.uint64(1 << 40)
        assert payload_checksum(arr) != before

    def test_detects_wrapped_payload(self):
        # the fault injector wraps payloads in a marker object; the
        # checksum must change even though the array bytes do not
        arr = np.arange(8, dtype=np.uint64)
        assert payload_checksum(arr) != payload_checksum(Wrapped(arr))

    @settings(max_examples=40, deadline=None)
    @given(payloads())
    def test_deterministic_within_process(self, payload):
        assert payload_checksum(payload) == payload_checksum(payload)

    def test_array_checksum_avoids_pickle(self, monkeypatch):
        def boom(*a, **k):  # pragma: no cover - should never run
            raise AssertionError("array checksum reached pickle")

        monkeypatch.setattr(pickle, "dumps", boom)
        payload_checksum([np.arange(100, dtype=np.uint64)])


class TestFrameLayout:
    def test_magic_leads_every_frame(self):
        assert encode_frame("t", None).startswith(MAGIC)

    def test_oversized_tag_rejected(self):
        with pytest.raises(TransportError, match="tag too long"):
            frame_sizes("x" * 70_000, None)
