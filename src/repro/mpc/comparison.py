"""Dealer-assisted secure comparison over additively shared values.

The paper's activation (Eq. 9) is piecewise linear with breakpoints at
±1/2; evaluating it on a secret-shared ``x`` needs secure comparisons.
SecureML switches to Yao garbled circuits for this; ParSecureML inherits
the approach without detailing it.  The system runs one protocol, this
module's *dealer-assisted* comparison (:func:`secure_ge_const`); no
configuration selects another.  The tests hold it to plain
two's-complement ``>=``, to a plaintext reference (``tests/oracles.py``)
and to a frozen bit-serial ripple-borrow circuit.

Protocol (semi-honest, trusted-dealer / commodity model)
---------------------------------------------------------
Goal: arithmetic shares of the indicator ``[x >= c]`` for public ``c``,
where ``y = x - c`` is additively shared and ``|y| < 2^62``.

Offline, the dealer distributes for each comparison:

* additive shares of a uniform mask ``r``;
* XOR shares of the 64 bits of ``r``;
* XOR shares of the 31 *pair products* ``q_j = r_{2j} AND r_{2j-1}``
  (``j = 1 .. 31``);
* shared-operand Beaver *bit* triplets ``(u, v_g, v_p, u AND v_g,
  u AND v_p)`` for the borrow tree below (plain ``(u, v_g, u AND v_g)``
  where a combine needs only one AND);
* a random bit ``b`` shared both XOR- and arithmetically (for B2A).

Online:

1. the servers open ``m = y + r`` (one round; ``m`` is uniform, so it
   leaks nothing);
2. the sign bit of ``y = m - r (mod 2^64)`` needs ``borrow_63``, the
   borrow into bit 63.  Because ``m`` is *public*, the generate and
   propagate bits ``g_k = NOT m_k AND r_k`` and ``p_k = NOT (m_k XOR
   r_k)`` are affine in the shares of ``r_k``.  **Leaves** (no
   communication): leaf 0 is bit 0 alone (``G = g_0``; its ``P`` is
   never needed, the borrow into bit 0 is 0); leaf ``j = 1 .. 31`` is
   the bit pair ``(2j, 2j-1)``, ``G = g_hi XOR p_hi AND g_lo``, ``P =
   p_hi AND p_lo``.  With ``h = NOT m_2j`` and ``l = NOT m_{2j-1}``
   public, ``G = h r_2j XOR hl r_{2j-1} XOR l q_j`` and ``P = hl XOR h
   r_{2j-1} XOR l r_2j XOR q_j``: linear in the dealt shares.
   **Tree**: five AND levels (16, 8, 4, 2, 1 combines) reduce the 32
   leaves to one ``G = borrow_63``.  Combine ``i`` of a level joins
   nodes ``hi = 2i+1`` and ``lo = 2i`` of the level below into ``(G_hi
   XOR P_hi AND G_lo, P_hi AND P_lo)``.  Both ANDs share ``P_hi``, so it
   is opened once: the servers open ``d = P_hi XOR u``, ``e_g = G_lo XOR
   v_g`` and ``e_p = P_lo XOR v_p`` — three planes for two ANDs.  The
   lowest combine of each level (it holds bit 0) needs only ``G``: two
   planes, ``d`` and ``e_g``.  That is ``3n - 1`` planes for a level of
   ``n`` combines, 47 + 23 + 11 + 5 + 2 = 88 per direction in all;
3. ``[y >= 0] = NOT sign = 1 XOR m_63 XOR r_63 XOR borrow_63`` on XOR
   shares;
4. B2A: open ``t = s XOR b`` (public bit), then the arithmetic share is
   ``t + (1 - 2t) * [b]_arith`` — local given the precomputed ``b``.

Seven rounds in all (the opening, five levels, B2A).  The dealer deals
145 triplet planes (``5n - 2`` a level) and 31 pair-product planes.

Representation
--------------
Binary shares are *bit planes* packed 64 elements to a ``uint64`` word:
plane ``k`` holds bit ``k`` of every element, element ``j`` in lane
``j % 64`` of word ``j // 64``.  One XOR or AND on a plane is one gate on
64 elements, and the host holds the packed bits the cost model charges
(:func:`comparison_offline_bytes`).  A level's nodes are the rows of one
``(2 servers, nodes, words)`` array, so each level is a handful of
whole-array gates.  Lanes past the last element are dealer padding:
never unpacked, never counted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from repro.fixedpoint.ring import RING_DTYPE, ring_add, ring_mul, ring_sub
from repro.mpc.shares import SharePair, _uniform_ring
from repro.util.errors import ProtocolError, ShapeError

_BITS = 64
_LANES = 64  # elements per packed word
# 8x8 bit-matrix transpose as three delta-swaps: each (shift, mask)
# exchanges every masked bit with the bit ``shift`` places above it.
_DELTA_SWAPS = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))
_LEAVES = 32  # bit 0, then the pairs (2j, 2j - 1) for j = 1 .. 31
_PAIRS = _LEAVES - 1  # dealt pair products q_j
# Per tree level: (combines n, first row of its u / v_g / w_g planes,
# first row of its v_p / w_p planes).  A level's lowest combine has no
# v_p / w_p row, so the second offset falls one behind per level.
_LEVELS = ((16, 0, 0), (8, 16, 15), (4, 24, 22), (2, 28, 25), (1, 30, 26))
_G_ANDS = _LEAVES - 1  # one G AND per combine: 16 + 8 + 4 + 2 + 1
_P_ANDS = _G_ANDS - len(_LEVELS)  # every combine but each level's lowest
# The u row each v_p / w_p row shares its operand with.
_P_ROWS = np.array([off + i for n, off, _ in _LEVELS for i in range(1, n)], dtype=np.intp)
_TRIPLET_PLANES = 3 * _G_ANDS + 2 * _P_ANDS  # 145


def _row_slices(*counts: int) -> tuple[slice, ...]:
    """Consecutive row ranges of the given lengths."""
    ends = list(itertools.accumulate(counts))
    return tuple(slice(end - count, end) for count, end in zip(counts, ends))


# A bundle's bit fields are row ranges of two (2, planes, words) arrays:
# the masks u, v_g, v_p and the B2A bit (last row), both of whose shares
# the dealer draws; and the dealt values r's bits, q, w_g, w_p, whose
# server-1 share it derives from the value and server 0's.
_MASK_ROWS = _row_slices(_G_ANDS, _G_ANDS, _P_ANDS)
_MASK_PLANES = _MASK_ROWS[-1].stop + 1
_DEALT_ROWS = _row_slices(_BITS, _PAIRS, _G_ANDS, _P_ANDS)
_DEALT_PLANES = _DEALT_ROWS[-1].stop
_OPENED_PLANES = 2 * _G_ANDS + _P_ANDS  # d, e_g, e_p: 88 per direction
_ROUNDS = 1 + len(_LEVELS) + 1  # open m, the tree, B2A


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

    Bits are charged packed, exactly the planes dealt: 64 of ``r``'s
    bits, 31 pair products and 145 tree-triplet planes.
    """
    n = int(n_elements)
    return (
        n * 8  # r share
        + n * _BITS // 8  # bits of r
        + (_PAIRS + _TRIPLET_PLANES) * n // 8  # pair products + tree triplets
        + n // 8 + n * 8  # b2a bit (xor) + arith share
    )


@dataclass
class ComparisonBundle:
    """Per-comparison precomputed material for one element array shape.

    Single-use, like a Beaver triplet.  ``offline_bytes`` reports the
    dealer-to-server traffic this bundle represents, which the framework
    charges to the offline phase.  Every bit field stacks the two
    servers' XOR shares on its first axis (``bundle.r_bits[1]`` is
    server 1's) over ``(planes, words)``; triplet rows run level by
    level, combine by combine (``_LEVELS`` gives each level's first row).
    """

    shape: tuple[int, ...]
    r_arith: SharePair
    r_bits: np.ndarray  # r's 64 bit planes
    pair: np.ndarray  # q_j = r_2j AND r_{2j-1}, j = 1 .. 31
    and_u: np.ndarray  # mask of P_hi, one per combine (31 planes)
    and_vg: np.ndarray  # mask of G_lo (31 planes)
    and_wg: np.ndarray  # u AND v_g
    and_vp: np.ndarray  # mask of P_lo, all but each level's lowest (26 planes)
    and_wp: np.ndarray  # u AND v_p
    b2a_bit: np.ndarray  # the B2A bit plane, (2, words)
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
        n = math.prod(shape)
        words = _n_words(shape)
        # r, server 0's arithmetic shares of r and b, and both shares of
        # every mask, then server 0's share of every dealt value.
        ring = _uniform_ring(3 * n + 2 * _MASK_PLANES * words, rng)
        r, r_share0, b_share0 = ring[: 3 * n].reshape(3, *shape)
        masks = ring[3 * n :].reshape(2, _MASK_PLANES, words)
        u, vg, vp = (masks[:, rows] for rows in _MASK_ROWS)
        b2a_bit = masks[:, -1]
        dealt = np.empty((2, _DEALT_PLANES, words), dtype=RING_DTYPE)
        dealt[0] = _uniform_ring((_DEALT_PLANES, words), rng)
        r_bits, pair, wg, wp = (dealt[:, rows] for rows in _DEALT_ROWS)
        # Server 1's share of each dealt value: value XOR server 0's.
        r_planes = _bit_planes(r)
        np.bitwise_xor(r_planes, r_bits[0], out=r_bits[1])
        np.bitwise_and(r_planes[2::2], r_planes[1:-1:2], out=pair[1])
        pair[1] ^= pair[0]
        u_open = u[0] ^ u[1]
        for w, v, u_rows in ((wg, vg, u_open), (wp, vp, u_open[_P_ROWS])):
            np.bitwise_xor(v[0], v[1], out=w[1])
            w[1] &= u_rows
            w[1] ^= w[0]
        b = _unpack_plane(b2a_bit[0] ^ b2a_bit[1], shape)

        self.bundles_issued += 1
        return ComparisonBundle(
            shape=shape,
            r_arith=SharePair(r_share0, ring_sub(r, r_share0)),
            r_bits=r_bits,
            pair=pair,
            and_u=u,
            and_vg=vg,
            and_wg=wg,
            and_vp=vp,
            and_wp=wp,
            b2a_bit=b2a_bit,
            b2a_arith=SharePair(b_share0, ring_sub(b, b_share0)),
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
    opening, the tree's 88 opened bit planes each way, one B2A opening.
    """
    n = int(n_elements)
    opening = 2 * n * 8
    tree = 2 * _OPENED_PLANES * ((n + 7) // 8)
    b2a = 2 * ((n + 7) // 8)
    return opening + tree + b2a


def _open(shares: np.ndarray) -> np.ndarray:
    """The value both servers learn from exchanging their XOR shares
    (every bit plane the protocol opens goes through here)."""
    return shares[0] ^ shares[1]


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

    # Leaves, local on the shares: G/P rows are the tree's nodes, row 0
    # bit 0 (its P row is never read), row j the pair (2j, 2j - 1);
    # axis 0 is the server.  Gates write into preallocated level
    # buffers and one scratch array.
    not_m = ~_bit_planes(m)
    not_hi, not_lo = not_m[2::2], not_m[1:-1:2]  # the docstring's h and l
    hl = not_hi & not_lo
    r_bits, q = bundle.r_bits, bundle.pair
    r_hi, r_lo = r_bits[:, 2::2], r_bits[:, 1:-1:2]
    G = np.empty((2, _LEAVES, not_m.shape[1]), dtype=RING_DTYPE)
    P = np.empty_like(G)
    tmp = np.empty_like(G[:, 1:])
    np.bitwise_and(not_m[0], r_bits[:, 0], out=G[:, 0])
    g, p = G[:, 1:], P[:, 1:]
    np.bitwise_and(not_hi, r_hi, out=g)
    g ^= np.bitwise_and(hl, r_lo, out=tmp)
    g ^= np.bitwise_and(not_lo, q, out=tmp)
    np.bitwise_and(not_hi, r_lo, out=p)
    p ^= np.bitwise_and(not_lo, r_hi, out=tmp)
    p ^= q
    P[0, 1:] ^= hl

    # Five AND levels, one round each: combine i joins nodes 2i + 1 (hi)
    # and 2i (lo).  d = P_hi ^ u serves both ANDs of the combine.
    for n, off, poff in _LEVELS:
        u, vg, wg = (t[:, off : off + n] for t in (bundle.and_u, bundle.and_vg, bundle.and_wg))
        vp, wp = (t[:, poff : poff + n - 1] for t in (bundle.and_vp, bundle.and_wp))
        t_g, t_p = tmp[:, :n], tmp[:, : n - 1]
        d = _open(np.bitwise_xor(P[:, 1 : 2 * n : 2], u, out=t_g))
        e_g = _open(np.bitwise_xor(G[:, 0 : 2 * n : 2], vg, out=t_g))
        e_p = _open(np.bitwise_xor(P[:, 2 : 2 * n : 2], vp, out=t_p))
        # z_i = w_i ^ (d & v_i) ^ (e & u_i), and server 1 adds d & e;
        # the new level overwrites the first rows of the buffers.
        g = np.bitwise_xor(G[:, 1 : 2 * n : 2], wg, out=G[:, :n])
        g ^= np.bitwise_and(d, vg, out=t_g)
        g ^= np.bitwise_and(e_g, u, out=t_g)
        g[1] ^= d & e_g
        p = np.bitwise_and(d[1:], vp, out=P[:, 1:n])
        p ^= wp
        p ^= np.bitwise_and(e_p, u[:, 1:], out=t_p)
        p[1] ^= d[1:] & e_p

    # Indicator [y >= 0] = NOT sign = NOT (m_63 XOR r_63 XOR borrow_63)
    #                    = p_63 XOR borrow_63, local on the shares.
    s = r_bits[:, _BITS - 1] ^ G[:, 0]
    s[0] ^= not_m[_BITS - 1]

    # B2A: open t = s XOR b, then share = t + (1 - 2t) * [b]_arith.
    t = _unpack_plane(_open(s ^ bundle.b2a_bit), bundle.shape)
    sign_factor = ring_sub(np.uint64(1), ring_mul(np.uint64(2), t))
    out0 = ring_add(t, ring_mul(sign_factor, bundle.b2a_arith[0]))
    out1 = ring_mul(sign_factor, bundle.b2a_arith[1])
    return ComparisonResult(
        share0=out0,
        share1=out1,
        online_bytes=comparison_online_bytes(m.size),
        rounds=_ROUNDS,
    )
