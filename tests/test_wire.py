"""The framed wire codec: round-trips, exact sizing, coalescing.

Property-based coverage (hypothesis) of the encode/decode pair over
arbitrary dtypes, shapes (including empty and 0-d) and nested payloads;
a fuzz of the decoder, which must meet arbitrary and hostile bytes with
:class:`TransportError` only (it never unpickles, so it never runs code);
exactness of :func:`frame_sizes` against the materialized frame — the
oracle for the sizes every channel charges; and the coalescer's
order-preservation contract.
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
    """A leaf outside the frame codec's allowlist."""

    label: str
    data: np.ndarray


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

    @pytest.mark.parametrize(
        "leaf",
        [Blob("x", np.arange(4)), {"k": 1}, True, 2**63, np.int64(3), np.array([object()])],
        ids=["dataclass", "dict", "bool", "int-over-64-bits", "numpy-scalar", "object-array"],
    )
    def test_a_leaf_outside_the_allowlist_is_refused(self, leaf):
        for frame in (encode_frame, frame_sizes):
            with pytest.raises(TransportError, match="cannot carry"):
                frame("t", [np.zeros(2), leaf])

    def test_a_scalar_keeps_the_bytes_a_pickle_of_it_had(self):
        # the int/float leaf's bytes are pinned by the golden transcripts'
        # frame sizes (CSR deltas frame their shape as two ints)
        for value in (0, 255, 256, 65536, -1, 2**31, -(2**63), 2**63 - 1, 1.5, -0.0):
            skeleton = pickle.dumps(value, protocol=5)
            assert encode_frame("t", value).endswith(
                bytes([6]) + len(skeleton).to_bytes(8, "little") + skeleton + bytes(4)
            )
            _, decoded = decode_frame(encode_frame("t", value))
            assert type(decoded) is type(value) and decoded == value

    def test_a_pickled_object_is_never_loaded(self, monkeypatch):
        def boom(*a, **k):  # pragma: no cover - must never run
            raise AssertionError("decoder unpickled wire bytes")

        monkeypatch.setattr(pickle, "loads", boom)
        skeleton = pickle.dumps(Blob("x", np.arange(2)), protocol=5)
        frame = encode_frame("t", None)[:-1] + bytes([6]) + len(skeleton).to_bytes(8, "little")
        with pytest.raises(TransportError, match="not an int or a float"):
            decode_frame(frame + skeleton + bytes(4))

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


class TestFrameLayout:
    def test_magic_leads_every_frame(self):
        assert encode_frame("t", None).startswith(MAGIC)

    def test_oversized_tag_rejected(self):
        with pytest.raises(TransportError, match="tag too long"):
            frame_sizes("x" * 70_000, None)


def _header(tag: str = "t") -> bytes:
    """A valid frame header: what precedes the payload."""
    return encode_frame(tag, None)[:-1]


def _array_part(dtype: bytes, shape) -> bytes:
    return bytes([0, len(dtype)]) + dtype + bytes([len(shape)]) + b"".join(
        d.to_bytes(8, "little", signed=True) for d in shape
    )


class TestHostileFrames:
    """Whatever arrives, the decoder answers with a payload or a
    TransportError: never IndexError, MemoryError, struct.error,
    RecursionError, UnicodeDecodeError, or a numpy exception."""

    @staticmethod
    def _decode(data):
        try:
            decode_frame(data)
        except TransportError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=256))
    def test_arbitrary_bytes(self, data):
        self._decode(data)

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=256))
    def test_arbitrary_payload_after_a_valid_header(self, data):
        self._decode(_header() + data)

    @settings(max_examples=200, deadline=None)
    @given(payloads(), st.integers(0, 2**16), st.binary(min_size=1, max_size=8))
    def test_a_valid_frame_with_bytes_overwritten(self, payload, at, junk):
        frame = bytearray(encode_frame("t", payload))
        at %= len(frame)
        frame[at : at + len(junk)] = junk
        self._decode(bytes(frame))

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([b"<u8", b"|u1", b">f8", b"<c16", b"|O", b"<V8", b"i4,i4", b"(2,)i4",
                         b"<M8[s]", b"", b"\xff\xfe", b"zz"]),
        st.lists(st.integers(-(2**63), 2**63 - 1), max_size=70),
        st.binary(max_size=64),
    )
    def test_hostile_array_header(self, dtype, shape, body):
        self._decode(_header() + _array_part(dtype, shape) + body)

    @pytest.mark.parametrize(
        "shape",
        [(2**62, 4), (-1,), (-(2**63),), (0, 2**63 - 1), (2**31,) * 4, (1,) * 65],
        ids=["overflowing-product", "negative", "most-negative", "empty-but-huge", "huge", "65-d"],
    )
    def test_shapes_that_claim_more_than_the_frame_holds(self, shape):
        with pytest.raises(TransportError):
            decode_frame(_header() + _array_part(b"<u8", shape) + bytes(64))

    def test_deep_nesting_is_refused_not_a_recursion_error(self):
        with pytest.raises(TransportError, match="nests deeper"):
            decode_frame(_header() + bytes([2, 1, 0, 0, 0]) * 10_000 + bytes([4]))
        with pytest.raises(TransportError, match="nests deeper"):
            nested = None
            for _ in range(40):
                nested = [nested]
            encode_frame("t", nested)
