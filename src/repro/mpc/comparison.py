"""Dealer-assisted secure comparison over additively shared values.

The paper's activation (Eq. 9) is piecewise linear with breakpoints at
±1/2; evaluating it on a secret-shared ``x`` needs secure comparisons.
SecureML switches to Yao garbled circuits for this; ParSecureML inherits
the approach without detailing it.  The system runs one protocol, this
module's *dealer-assisted* comparison (:func:`secure_ge_const`); no
configuration selects another.  The tests hold it to plain
two's-complement ``>=`` and to a plaintext reference
(``tests/oracles.py``).

Protocol (semi-honest, trusted-dealer / commodity model)
---------------------------------------------------------
Goal: arithmetic shares of the indicator ``[x >= c]`` for public ``c``,
where ``y = x - c`` is additively shared and ``|y| < 2^62``.

Offline, the dealer distributes for each comparison:

* additive shares of a uniform mask ``r``;
* XOR shares of the 64 bits of ``r``;
* Beaver *bit* triplets (XOR-shared ``u, v, w = u AND v``) for the AND
  gates below;
* a random bit ``b`` shared both XOR- and arithmetically (for B2A).

Online:

1. the servers open ``m = y + r`` (one round; ``m`` is uniform, so it
   leaks nothing);
2. the sign bit of ``y = m - r (mod 2^64)`` is computed with a binary
   ripple-borrow subtraction circuit evaluated GMW-style on the XOR
   shares of ``r``'s bits.  Because ``m`` is *public*, the generate and
   propagate bits ``g_k = NOT m_k AND r_k`` and ``p_k = NOT (m_k XOR
   r_k)`` are linear in the shares (local); only the recurrence
   ``borrow_{k+1} = g_k XOR (p_k AND borrow_k)`` needs one secure AND
   per bit position (62 vectorised AND rounds to reach bit 63);
3. ``[y >= 0] = NOT sign = 1 XOR m_63 XOR r_63 XOR borrow_63`` on XOR
   shares;
4. B2A: open ``t = s XOR b`` (public bit), then the arithmetic share is
   ``t + (1 - 2t) * [b]_arith`` — local given the precomputed ``b``.

Representation
--------------
Binary shares are *bit planes* packed 64 elements to a ``uint64`` word:
plane ``k`` holds bit ``k`` of every element, element ``j`` in lane
``j % 64`` of word ``j // 64``.  One XOR or AND on a plane is one gate on
64 elements, and the host holds the packed bits the cost model charges
(:func:`comparison_offline_bytes`).  Lanes past the last element are
dealer padding: never unpacked, never counted.  The 62 AND rounds cost
62 small messages regardless of matrix size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.fixedpoint.ring import RING_DTYPE, ring_add, ring_mul, ring_sub
from repro.mpc.shares import SharePair, _uniform_ring, share_secret
from repro.util.errors import ProtocolError, ShapeError

_BITS = 64
_LANES = 64  # elements per packed word
# 8x8 bit-matrix transpose as three delta-swaps: each (shift, mask)
# exchanges every masked bit with the bit ``shift`` places above it.
_DELTA_SWAPS = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))


def _n_words(shape: tuple[int, ...]) -> int:
    return -(-math.prod(shape) // _LANES)


def _bit_planes(x: np.ndarray) -> np.ndarray:
    """Transpose ring elements into 64 packed bit planes.

    Returns ``planes`` of shape ``(64, ceil(n / 64))`` with bit ``j % 64``
    of ``planes[k, j // 64]`` equal to bit ``k`` of ``x.flat[j]``;
    padding lanes are zero.  (Byte views assume a little-endian host.)
    """
    words = _n_words(x.shape)
    padded = np.zeros(words * _LANES, dtype=RING_DTYPE)
    padded[: x.size] = x.reshape(-1)
    # q[b, w, J] gathers byte b of elements 64w + 8J .. 64w + 8J + 7.
    q = np.ascontiguousarray(
        padded.view(np.uint8).reshape(words, 8, 8, 8).transpose(3, 0, 1, 2)
    ).view(RING_DTYPE)
    t = np.empty_like(q)
    for shift, mask in _DELTA_SWAPS:
        np.right_shift(q, shift, out=t)
        t ^= q
        t &= np.uint64(mask)
        q ^= t
        t <<= shift
        q ^= t
    # Byte i of q[b, w, J] is now bit 8b + i of those eight elements,
    # i.e. byte J of planes[8b + i, w].
    planes = np.ascontiguousarray(q.view(np.uint8).reshape(8, words, 8, 8).transpose(0, 3, 1, 2))
    return planes.view(RING_DTYPE).reshape(_BITS, words)


def _unpack_plane(plane: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The first ``prod(shape)`` lanes of one packed plane as 0/1 ring elements."""
    bits = np.unpackbits(plane.view(np.uint8), count=math.prod(shape), bitorder="little")
    return bits.reshape(shape).astype(RING_DTYPE)


def comparison_offline_bytes(n_elements: int) -> int:
    """Dealer-to-server bytes of one comparison bundle, per server.

    Bits are charged packed.  63 triplet planes are charged although the
    ripple consumes 62: ``sim_offline_s`` and the golden
    ``compare:upload`` records pin this value.
    """
    n = int(n_elements)
    return (
        n * 8  # r share
        + n * _BITS // 8  # bits of r
        + 3 * (_BITS - 1) * n // 8  # bit triplets
        + n // 8 + n * 8  # b2a bit (xor) + arith share
    )


@dataclass
class ComparisonBundle:
    """Per-comparison precomputed material for one element array shape.

    Single-use, like a Beaver triplet.  ``offline_bytes`` reports the
    dealer-to-server traffic this bundle represents, which the framework
    charges to the offline phase.
    """

    shape: tuple[int, ...]
    r_arith: SharePair
    r_bits0: np.ndarray  # XOR shares of r's bit planes
    r_bits1: np.ndarray
    and_u0: np.ndarray  # bit-triplet planes
    and_u1: np.ndarray
    and_v0: np.ndarray
    and_v1: np.ndarray
    and_w0: np.ndarray
    and_w1: np.ndarray
    b2a_bit0: np.ndarray  # XOR shares of the B2A bit plane
    b2a_bit1: np.ndarray
    b2a_arith: SharePair  # arithmetic shares of the same bit
    consumed: bool = False

    @property
    def offline_bytes(self) -> int:
        """Dealer-to-servers bytes this bundle accounts for (both servers)."""
        return 2 * comparison_offline_bytes(math.prod(self.shape))

    def mark_consumed(self) -> None:
        if self.consumed:
            raise ProtocolError("comparison bundle reused; bundles are single-use")
        self.consumed = True


class ComparisonDealer:
    """Offline factory for :class:`ComparisonBundle` objects.

    With a ``seeds`` factory, :meth:`bundle` accepts an op-stream
    ``label`` and derives that bundle's randomness from it instead of
    the shared advancing ``rng`` — the comparison analogue of per-label
    triplet caching: the same stream draws bit-identical material on
    every invocation, which is what makes checkpoint replay (see
    ``repro.faults``) reproduce a run exactly.  Bundles stay single-use
    objects either way.
    """

    def __init__(self, rng: np.random.Generator, *, seeds=None):
        self._rng = rng
        self._seeds = seeds
        self.bundles_issued = 0

    def bundle(self, shape: tuple[int, ...], label: str | None = None) -> ComparisonBundle:
        if label is not None and self._seeds is not None:
            rng = self._seeds.generator(f"bundle/{label}")
        else:
            rng = self._rng
        shape = tuple(shape)
        words = _n_words(shape)
        r = _uniform_ring(shape, rng)
        r_arith = share_secret(r, rng)
        r_bits0 = _uniform_ring((_BITS, words), rng)
        r_bits1 = _bit_planes(r) ^ r_bits0
        # Bit triplets w = u AND v, every XOR share but w1 a uniform word.
        u0, u1, v0, v1, w0 = _uniform_ring((5, _BITS - 1, words), rng)
        w1 = ((u0 ^ u1) & (v0 ^ v1)) ^ w0
        b0, b1 = _uniform_ring((2, words), rng)
        b_arith = share_secret(_unpack_plane(b0 ^ b1, shape), rng)

        self.bundles_issued += 1
        return ComparisonBundle(
            shape=shape,
            r_arith=r_arith,
            r_bits0=r_bits0,
            r_bits1=r_bits1,
            and_u0=u0,
            and_u1=u1,
            and_v0=v0,
            and_v1=v1,
            and_w0=w0,
            and_w1=w1,
            b2a_bit0=b0,
            b2a_bit1=b1,
            b2a_arith=b_arith,
        )


@dataclass
class ComparisonResult:
    """Output of one secure comparison: arithmetic shares of the 0/1
    indicator, plus traffic/round accounting for the cost model."""

    share0: np.ndarray
    share1: np.ndarray
    online_bytes: int
    rounds: int


def comparison_online_bytes(n_elements: int) -> int:
    """Wire bytes the dealer-assisted comparison moves for ``n`` elements.

    Mirrors the accounting of :func:`secure_ge_const` exactly: one ring
    opening, 62 GMW AND rounds of packed bits, one B2A opening.
    """
    n = int(n_elements)
    opening = 2 * n * 8
    and_rounds = (_BITS - 2) * 2 * 2 * ((n + 7) // 8)
    b2a = 2 * ((n + 7) // 8)
    return opening + and_rounds + b2a


def secure_ge_const(
    x0: np.ndarray,
    x1: np.ndarray,
    c_encoded: int,
    bundle: ComparisonBundle,
) -> ComparisonResult:
    """Arithmetic shares of ``[x >= c]`` for additively shared ``x``.

    ``c_encoded`` is the public threshold already fixed-point encoded into
    the ring.  Runs both servers' roles in lockstep (the framework's
    simulation style); traffic is reported, not physically sent.
    """
    x0 = np.asarray(x0, dtype=RING_DTYPE)
    x1 = np.asarray(x1, dtype=RING_DTYPE)
    if x0.shape != bundle.shape or x1.shape != bundle.shape:
        raise ShapeError(
            f"comparison bundle shape {bundle.shape} does not match input {x0.shape}"
        )
    bundle.mark_consumed()

    # y = x - c, shared; server 0 applies the public constant.
    c = np.uint64(int(c_encoded) % 2**64)
    y0 = ring_sub(x0, np.broadcast_to(c, x0.shape))
    y1 = x1

    # Round 1: open m = y + r.
    m0 = ring_add(y0, bundle.r_arith[0])
    m1 = ring_add(y1, bundle.r_arith[1])
    m = ring_add(m0, m1)
    rounds = 1
    online_bytes = 2 * m.size * 8

    # Public bit planes of m, and the linear (local) generate/propagate
    # shares for m - r:
    #   g_k = NOT m_k AND r_k     -> AND r_k's shares with the public plane
    #   p_k = NOT (m_k XOR r_k)   -> XOR the public plane into one share
    not_m = ~_bit_planes(m)
    g0 = not_m & bundle.r_bits0
    g1 = not_m & bundle.r_bits1
    p0 = not_m ^ bundle.r_bits0
    p1 = bundle.r_bits1

    # Ripple: borrow_{k+1} = g_k XOR (p_k AND borrow_k); borrow_1 = g_0.
    # We need borrow into bit 63, i.e. iterations k = 1 .. 62, each one
    # Beaver-triplet AND on a whole plane, in place on preallocated
    # word buffers.
    b0 = g0[0].copy()
    b1 = g1[0].copy()
    d, e, t0, t1, tmp = np.empty((5, b0.size), dtype=RING_DTYPE)
    packed = (m.size + 7) // 8  # wire bytes of one plane; padding lanes not sent
    triplets = (
        bundle.and_u0, bundle.and_u1, bundle.and_v0, bundle.and_v1, bundle.and_w0, bundle.and_w1
    )
    for k_idx, u0k, u1k, v0k, v1k, w0k, w1k in zip(range(1, _BITS - 1), *triplets):
        # opened d = p XOR u, e = borrow XOR v
        np.bitwise_xor(p0[k_idx], u0k, out=d)
        np.bitwise_xor(d, p1[k_idx], out=d)
        np.bitwise_xor(d, u1k, out=d)
        np.bitwise_xor(b0, v0k, out=e)
        np.bitwise_xor(e, b1, out=e)
        np.bitwise_xor(e, v1k, out=e)
        # z0 = w0 ^ (d & v0) ^ (e & u0)
        np.bitwise_and(d, v0k, out=t0)
        np.bitwise_xor(t0, w0k, out=t0)
        np.bitwise_and(e, u0k, out=tmp)
        np.bitwise_xor(t0, tmp, out=t0)
        # z1 = w1 ^ (d & v1) ^ (e & u1) ^ (d & e)
        np.bitwise_and(d, v1k, out=t1)
        np.bitwise_xor(t1, w1k, out=t1)
        np.bitwise_and(e, u1k, out=tmp)
        np.bitwise_xor(t1, tmp, out=t1)
        np.bitwise_and(d, e, out=tmp)
        np.bitwise_xor(t1, tmp, out=t1)
        # borrow update: b = g_k XOR z
        np.bitwise_xor(g0[k_idx], t0, out=b0)
        np.bitwise_xor(g1[k_idx], t1, out=b1)
        rounds += 1
        online_bytes += 2 * 2 * packed  # d,e each way

    # Indicator [y >= 0] = NOT sign = NOT (m_63 XOR r_63 XOR borrow_63)
    #                    = p_63 XOR borrow_63, local on the shares.
    s0 = p0[_BITS - 1] ^ b0
    s1 = p1[_BITS - 1] ^ b1

    # B2A: open t = s XOR b, then share = t + (1 - 2t) * [b]_arith.
    t = _unpack_plane((s0 ^ bundle.b2a_bit0) ^ (s1 ^ bundle.b2a_bit1), bundle.shape)
    rounds += 1
    online_bytes += 2 * packed
    sign_factor = ring_sub(np.uint64(1), ring_mul(np.uint64(2), t))
    out0 = ring_add(t, ring_mul(sign_factor, bundle.b2a_arith[0]))
    out1 = ring_mul(sign_factor, bundle.b2a_arith[1])
    return ComparisonResult(share0=out0, share1=out1, online_bytes=online_bytes, rounds=rounds)
