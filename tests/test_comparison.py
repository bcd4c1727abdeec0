"""Dealer-assisted secure comparison and its cost-identical emulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import emulated_ge_const

from repro.fixedpoint.encoding import FixedPointEncoder
from repro.mpc.comparison import (
    ComparisonDealer,
    _bit_planes,
    comparison_offline_bytes,
    comparison_online_bytes,
    secure_ge_const,
)
from repro.mpc.shares import reconstruct, share_secret
from repro.util.errors import ProtocolError, ShapeError


def compare_via_protocol(values, threshold, seed=0):
    enc = FixedPointEncoder(13)
    rng = np.random.default_rng(seed)
    encoded = enc.encode(np.asarray(values, dtype=np.float64))
    pair = share_secret(encoded, rng)
    dealer = ComparisonDealer(np.random.default_rng(seed + 1))
    bundle = dealer.bundle(encoded.shape)
    res = secure_ge_const(pair.share0, pair.share1, int(enc.encode(np.float64(threshold))), bundle)
    return reconstruct(res.share0, res.share1).view(np.int64), res


class TestDealerComparison:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=12),
        st.floats(-10, 10, allow_nan=False),
        st.integers(0, 10_000),
    )
    def test_matches_numpy(self, values, threshold, seed):
        values = np.array(values)
        # rule out encoding-boundary ties where float and fixed-point
        # comparisons legitimately differ by one ulp
        enc = FixedPointEncoder(13)
        ok = np.abs(enc.decode(enc.encode(values)) - threshold) > 2 * enc.resolution
        got, _ = compare_via_protocol(values, threshold, seed)
        expected = (values >= threshold).astype(np.int64)
        assert np.array_equal(got[ok], expected[ok])

    def test_exact_on_grid_values(self):
        # values exactly representable: comparison must be exact incl. ties;
        # the 2x2 is the input the garbled-circuit cross-check once covered
        for values in (
            np.array([-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0]),
            np.array([[-1.5, 0.2], [0.5, 3.0]]),
        ):
            got, _ = compare_via_protocol(values, 0.5)
            assert np.array_equal(got, (values >= 0.5).astype(np.int64))

    def test_2d_shapes(self):
        values = np.linspace(-2, 2, 24).reshape(4, 6)
        got, _ = compare_via_protocol(values, 0.0)
        assert got.shape == (4, 6)
        assert np.array_equal(got, (values >= 0).astype(np.int64))

    def test_bundle_single_use(self, rng):
        dealer = ComparisonDealer(rng)
        bundle = dealer.bundle((2, 2))
        x = np.zeros((2, 2), dtype=np.uint64)
        secure_ge_const(x, x, 0, bundle)
        with pytest.raises(ProtocolError):
            secure_ge_const(x, x, 0, bundle)

    def test_shape_mismatch(self, rng):
        dealer = ComparisonDealer(rng)
        bundle = dealer.bundle((2, 2))
        x = np.zeros((3, 2), dtype=np.uint64)
        with pytest.raises(ShapeError):
            secure_ge_const(x, x, 0, bundle)

    def test_accounting_matches_formula(self):
        values = np.linspace(-1, 1, 10)
        _, res = compare_via_protocol(values, 0.0)
        assert res.online_bytes == comparison_online_bytes(10)
        assert res.rounds == 7

    @pytest.mark.parametrize("n", [0, 1, 10, 64, 65, 73_728])
    def test_byte_formulas(self, n):
        """One ring opening, 88 tree planes and one B2A plane each way
        online; per server, r's share and 64 bits, 31 pair products, 145
        tree-triplet planes and the B2A bit in both forms offline."""
        planes = (n + 7) // 8
        assert comparison_online_bytes(n) == 2 * 8 * n + 2 * 88 * planes + 2 * planes
        assert comparison_offline_bytes(n) == 8 * n + 64 * n // 8 + 176 * n // 8 + n // 8 + 8 * n


class TestEmulatedParity:
    """The real protocol must match the plaintext reference
    (``oracles.emulated_ge_const``) in value
    and in byte/round accounting."""

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 5000))
    def test_values_identical(self, seed):
        enc = FixedPointEncoder(13)
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(5, 4)) * 3
        encoded = enc.encode(values)
        pair = share_secret(encoded, rng)
        c = int(enc.encode(np.float64(0.25)))
        dealer = ComparisonDealer(np.random.default_rng(seed + 2))
        real = secure_ge_const(pair.share0, pair.share1, c, dealer.bundle(encoded.shape))
        emu = emulated_ge_const(pair.share0, pair.share1, c, np.random.default_rng(seed + 3))
        real_val = reconstruct(real.share0, real.share1)
        emu_val = reconstruct(emu.share0, emu.share1)
        assert np.array_equal(real_val, emu_val)

    def test_accounting_identical(self, rng):
        enc = FixedPointEncoder(13)
        encoded = enc.encode(rng.normal(size=(7, 3)))
        pair = share_secret(encoded, rng)
        dealer = ComparisonDealer(np.random.default_rng(0))
        real = secure_ge_const(pair.share0, pair.share1, 0, dealer.bundle(encoded.shape))
        emu = emulated_ge_const(pair.share0, pair.share1, 0, rng)
        assert emu.online_bytes == real.online_bytes
        assert emu.rounds == real.rounds

    def test_emulated_output_is_freshly_shared(self, rng):
        x = np.zeros((4, 4), dtype=np.uint64)
        a = emulated_ge_const(x, x, 0, np.random.default_rng(1))
        b = emulated_ge_const(x, x, 0, np.random.default_rng(2))
        assert not np.array_equal(a.share0, b.share0)  # different masks
        assert np.array_equal(
            reconstruct(a.share0, a.share1), reconstruct(b.share0, b.share1)
        )


class TestOfflineMaterial:
    def test_offline_bytes_positive_and_scales(self):
        assert 0 < comparison_offline_bytes(16) < comparison_offline_bytes(64)

    @pytest.mark.parametrize("shape", [(64,), (128, 128), (16, 4608), (0,)])
    def test_host_holds_what_the_cost_model_charges(self, rng, shape):
        """On whole words the bytes a server receives are the formula's."""
        bundle = ComparisonDealer(rng).bundle(shape)
        charged = comparison_offline_bytes(int(np.prod(shape)))
        for party in (0, 1):
            held = [bundle.r_arith[party], bundle.b2a_arith[party]]
            held += [
                getattr(bundle, name)[party]
                for name in ("r_bits", "pair", "and_u", "and_vg", "and_wg", "and_vp", "and_wp")
            ]
            held.append(bundle.b2a_bit[party])
            assert sum(a.nbytes for a in held) == charged

    def test_issuance_counter(self, rng):
        dealer = ComparisonDealer(rng)
        dealer.bundle((2,))
        dealer.bundle((3,))
        assert dealer.bundles_issued == 2


class TestInPlaceRippleLoop:
    """The borrow tree's in-place level buffers (the ripple's scratch
    loop before them) must not touch its inputs."""

    def test_inputs_unmodified(self, rng=None):
        rng = np.random.default_rng(11)
        enc = FixedPointEncoder(13)
        encoded = enc.encode(rng.normal(size=(5, 3)))
        pair = share_secret(encoded, rng)
        dealer = ComparisonDealer(np.random.default_rng(12))
        s0, s1 = pair.share0.copy(), pair.share1.copy()
        secure_ge_const(pair.share0, pair.share1, 0, dealer.bundle(encoded.shape))
        assert np.array_equal(pair.share0, s0)
        assert np.array_equal(pair.share1, s1)

    def test_repeat_run_identical(self):
        # would diverge if the in-place levels corrupted the bundle's
        # triplet planes through a view instead of private scratch
        a, _ = compare_via_protocol([-1.5, 0.0, 2.25], 0.5, seed=3)
        b, _ = compare_via_protocol([-1.5, 0.0, 2.25], 0.5, seed=3)
        assert np.array_equal(a, b)


def _unpack_planes(planes, n):
    """(K, ceil(n/64)) packed words -> (K, n) uint8 bits, lane order."""
    planes = np.atleast_2d(planes)
    return np.unpackbits(planes.view(np.uint8), axis=1, count=n, bitorder="little")


def _byte_per_bit_ge_const(x0, x1, c_encoded, bundle, and_rng):
    """Frozen oracle: the uint8 one-byte-per-bit GMW ripple (62 AND
    rounds) that ``secure_ge_const`` ran before the borrow tree, fed the
    unpacked ``r`` bits and B2A material of a packed bundle and its own
    Beaver bit triplets from ``and_rng``.  Both circuits compute the same
    indicator and B2A opens ``indicator XOR b``, so the output shares
    are bit-equal.  Do not optimise."""
    n = int(np.prod(bundle.shape))
    one = np.uint64(1)
    r_bits0 = _unpack_planes(bundle.r_bits[0], n).T  # (n, 64)
    r_bits1 = _unpack_planes(bundle.r_bits[1], n).T
    and_u0, and_u1, and_v0, and_v1, and_w0 = and_rng.integers(0, 2, size=(5, 62, n), dtype=np.uint8)
    and_w1 = ((and_u0 ^ and_u1) & (and_v0 ^ and_v1)) ^ and_w0
    b2a_bit0 = _unpack_planes(bundle.b2a_bit[0], n)[0]
    b2a_bit1 = _unpack_planes(bundle.b2a_bit[1], n)[0]

    c = np.uint64(int(c_encoded) % 2**64)
    with np.errstate(over="ignore"):
        m = (x0.reshape(-1) - c) + bundle.r_arith[0].reshape(-1)
        m = m + x1.reshape(-1) + bundle.r_arith[1].reshape(-1)
    k = np.arange(64, dtype=np.uint64)
    m_bits = ((m[..., None] >> k) & one).astype(np.uint8)
    not_m = (1 - m_bits).astype(np.uint8)
    g0 = not_m * r_bits0
    g1 = not_m * r_bits1
    p0 = r_bits0 ^ m_bits ^ np.uint8(1)
    p1 = r_bits1
    b0 = g0[..., 0]
    b1 = g1[..., 0]
    for k_idx in range(1, 63):
        d = (p0[..., k_idx] ^ and_u0[k_idx - 1]) ^ (p1[..., k_idx] ^ and_u1[k_idx - 1])
        e = (b0 ^ and_v0[k_idx - 1]) ^ (b1 ^ and_v1[k_idx - 1])
        z0 = and_w0[k_idx - 1] ^ (d & and_v0[k_idx - 1]) ^ (e & and_u0[k_idx - 1])
        z1 = and_w1[k_idx - 1] ^ (d & and_v1[k_idx - 1]) ^ (e & and_u1[k_idx - 1]) ^ (d & e)
        b0 = g0[..., k_idx] ^ z0
        b1 = g1[..., k_idx] ^ z1
    s0 = m_bits[..., 63] ^ r_bits0[..., 63] ^ b0 ^ np.uint8(1)
    s1 = r_bits1[..., 63] ^ b1
    t64 = ((s0 ^ b2a_bit0) ^ (s1 ^ b2a_bit1)).astype(np.uint64)
    with np.errstate(over="ignore"):
        sign_factor = one - np.uint64(2) * t64
        out0 = t64 + sign_factor * bundle.b2a_arith[0].reshape(-1)
        out1 = sign_factor * bundle.b2a_arith[1].reshape(-1)
    return out0.reshape(bundle.shape), out1.reshape(bundle.shape)


_ENC_HALF = int(FixedPointEncoder(13).encode(np.float64(0.5)))
_Y_MAX = 2**62 - 1  # the contract: |y| < 2^62
_EDGES = [0, -1, 2**61, -(2**61), _Y_MAX, -_Y_MAX]


class TestPackedPlanesAgainstOracle:
    """The word-packed borrow tree equals the frozen byte-per-bit ripple,
    the emulation and plain two's-complement comparison."""

    @pytest.mark.parametrize("c_encoded", [0, _ENC_HALF, -_ENC_HALF % 2**64])
    @pytest.mark.parametrize(
        "shape",
        [(0,), (1,), (63,), (64,), (65,), (128, 128), (16, 4608), (7, 13, 5), (3, 0), (2, 0, 4)],
    )
    def test_indicator_and_shares_equal_oracle(self, shape, c_encoded):
        rng = np.random.default_rng(7)
        x = FixedPointEncoder(13).encode(rng.normal(size=shape) * 4)
        flat = x.reshape(-1)
        edges = np.array([v % 2**64 for v in _EDGES], dtype=np.uint64)[: flat.size]
        flat[: edges.size] = edges
        pair = share_secret(x, rng)
        bundle = ComparisonDealer(rng).bundle(shape)
        want0, want1 = _byte_per_bit_ge_const(
            pair.share0, pair.share1, c_encoded, bundle, np.random.default_rng(8)
        )
        got = secure_ge_const(pair.share0, pair.share1, c_encoded, bundle)
        assert got.share0.shape == got.share1.shape == shape
        assert np.array_equal(got.share0, want0)
        assert np.array_equal(got.share1, want1)
        indicator = reconstruct(got.share0, got.share1)
        emu = emulated_ge_const(pair.share0, pair.share1, c_encoded, rng)
        assert np.array_equal(indicator, reconstruct(emu.share0, emu.share1))
        with np.errstate(over="ignore"):
            y = (pair.share0 + pair.share1) - np.uint64(c_encoded)
        assert np.array_equal(indicator, (y.view(np.int64) >= 0).astype(np.uint64))
        assert got.online_bytes == emu.online_bytes == comparison_online_bytes(x.size)
        assert got.rounds == emu.rounds == 7

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0, 1, -1, _Y_MAX, -_Y_MAX]),
                st.integers(-_Y_MAX, _Y_MAX),
            ),
            min_size=1,
            max_size=70,
        ),
        st.one_of(
            st.sampled_from([0, 1, -1, _ENC_HALF, -_ENC_HALF]),
            st.integers(-(2**63), 2**63 - 1),
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_indicator_is_twos_complement_ge(self, ys, c, seed):
        """For every |y| < 2^62 and any public c, of either sign, the
        opened indicator of x = y + c against c is [y >= 0]."""
        rng = np.random.default_rng(seed)
        y = np.array(ys, dtype=np.int64)
        x = y.view(np.uint64) + np.uint64(c % 2**64)
        pair = share_secret(x, rng)
        bundle = ComparisonDealer(rng).bundle(x.shape)
        got = secure_ge_const(pair.share0, pair.share1, c % 2**64, bundle)
        assert np.array_equal(reconstruct(got.share0, got.share1), (y >= 0).astype(np.uint64))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 300), st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]))
    def test_plane_transpose(self, n, seed, stride):
        x = np.random.default_rng(seed).integers(0, 2**64, size=n * stride, dtype=np.uint64)
        x = x[::stride]  # non-contiguous for stride > 1
        planes = _bit_planes(x)
        words = -(-n // 64)
        assert planes.shape == (64, words) and planes.dtype == np.uint64
        lanes = _unpack_planes(planes, 64 * words)
        k = np.arange(64, dtype=np.uint64)[:, None]
        assert np.array_equal(lanes[:, :n], ((x[None, :] >> k) & np.uint64(1)).astype(np.uint8))
        assert not lanes[:, n:].any()  # padding lanes are zero
