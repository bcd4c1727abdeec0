"""Fixed-point encoding: roundtrips, scales, bounds."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fixedpoint.encoding import FixedPointEncoder
from repro.util.errors import ConfigError, EncodingError, ReproError

reals = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestRoundtrip:
    @given(reals)
    def test_roundtrip_within_resolution(self, x):
        enc = FixedPointEncoder(13)
        decoded = float(enc.decode(enc.encode(np.float64(x))))
        assert abs(decoded - x) <= enc.resolution / 2 + 1e-12

    @given(st.integers(1, 20))
    def test_resolution_matches_frac_bits(self, frac_bits):
        enc = FixedPointEncoder(frac_bits)
        assert enc.resolution == 2.0**-frac_bits
        assert enc.scale == 2**frac_bits

    def test_negative_values_use_upper_half_ring(self):
        enc = FixedPointEncoder(13)
        encoded = enc.encode(np.float64(-1.0))
        assert int(encoded) > 2**63  # two's complement embedding
        assert float(enc.decode(encoded)) == -1.0

    def test_array_roundtrip(self, rng, encoder):
        x = rng.normal(size=(50, 7))
        decoded = encoder.decode(encoder.encode(x))
        np.testing.assert_allclose(decoded, x, atol=encoder.resolution)

    def test_rounds_to_nearest(self, encoder):
        # 0.6 * 2^13 = 4915.2 -> rounds to 4915
        assert int(encoder.encode(np.float64(0.6))) == 4915


class TestDoubleScale:
    def test_product_decodes_at_double_scale(self, rng, encoder):
        a, b = rng.normal(), rng.normal()
        ea = int(encoder.encode(np.float64(a)))
        eb = int(encoder.encode(np.float64(b)))
        prod = np.uint64((ea * eb) % 2**64)
        decoded = float(encoder.decode(prod, double_scale=True))
        assert abs(decoded - a * b) < 1e-3


class TestIntegerEmbedding:
    def test_encode_int_no_scaling(self, encoder):
        vals = np.array([-3, 0, 7])
        encoded = encoder.encode_int(vals)
        assert int(encoded[1]) == 0
        assert int(encoded[2]) == 7
        assert int(encoded[0]) == 2**64 - 3


class TestValidation:
    @pytest.mark.parametrize("bad", [0, -1, 31, 64])
    def test_frac_bits_bounds(self, bad):
        with pytest.raises(ConfigError):
            FixedPointEncoder(bad)

    def test_max_magnitude_is_safe(self, encoder):
        m = encoder.max_magnitude()
        # squaring the bound at double scale must stay below 2^62
        assert (m * encoder.scale) ** 2 < 2**62


class TestEncodeRange:
    """Values with no int64 image raise instead of wrapping silently."""

    FRAC = 13
    BOUND = 2.0 ** (63 - FRAC)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, BOUND, -BOUND, 1e300])
    def test_unencodable_value_raises(self, bad):
        x = np.array([0.5, bad, -2.0])
        with pytest.raises(EncodingError) as exc:
            FixedPointEncoder(self.FRAC).encode(x)
        assert isinstance(exc.value, ReproError) and isinstance(exc.value, ValueError)
        assert "1 of 3 value(s)" in str(exc.value)
        assert f"2^{63 - self.FRAC}" in str(exc.value)

    def test_message_names_count_and_peak(self):
        with pytest.raises(EncodingError, match=r"3 of 4 .* max \|x\| = inf"):
            FixedPointEncoder(self.FRAC).encode([np.nan, np.inf, self.BOUND * 4, 1.0])

    def test_largest_in_range_value_roundtrips(self):
        enc = FixedPointEncoder(self.FRAC)
        top = np.nextafter(self.BOUND, 0.0)
        x = np.array([top, -top])
        np.testing.assert_array_equal(enc.decode(enc.encode(x)), x)

    def test_empty_array_passes(self):
        assert FixedPointEncoder(self.FRAC).encode(np.empty((0, 3))).shape == (0, 3)
