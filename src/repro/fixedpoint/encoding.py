"""Fixed-point embedding of real values into Z_{2^64}.

A real ``x`` is encoded as ``round(x * 2^frac_bits)`` reduced modulo 2^64
(two's complement: negative values map to the upper half of the ring).
Decoding centres the ring on zero and divides the scale back out.

The encoder also knows how to decode *double-scale* values — products of
two encodings carry ``2 * frac_bits`` fractional bits until truncated —
which the tests use to check the truncation protocol against ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.errors import ConfigError, EncodingError

RING_BITS = 64
_RING_MODULUS = 1 << RING_BITS
_HALF_RING = np.uint64(1 << (RING_BITS - 1))


@dataclass(frozen=True)
class FixedPointEncoder:
    """Encode/decode floats to/from the 64-bit ring.

    Parameters
    ----------
    frac_bits:
        Number of fractional bits (the SecureML default is 13).
    """

    frac_bits: int = 13

    def __post_init__(self):
        if not 1 <= self.frac_bits <= 30:
            raise ConfigError(
                f"frac_bits must be in [1, 30] so double-scale products stay "
                f"well inside the ring, got {self.frac_bits}"
            )

    @property
    def scale(self) -> int:
        """Integer scale factor 2^frac_bits."""
        return 1 << self.frac_bits

    @property
    def resolution(self) -> float:
        """Smallest representable increment, 2^-frac_bits."""
        return 1.0 / self.scale

    def max_magnitude(self) -> float:
        """Largest |x| whose *product* with a same-size value stays safe.

        Local truncation (SecureML) requires encoded magnitudes to stay
        well below 2^(RING_BITS - 2) even at double scale; we expose the
        bound so models can clip gradients against it.
        """
        # double-scale encoding must stay strictly below 2^(RING_BITS - 2)
        return float(2 ** ((RING_BITS - 3 - 2 * self.frac_bits) / 2))

    def encode(self, x: np.ndarray | float) -> np.ndarray:
        """Encode floats into ring elements (rounding to nearest).

        Raises :class:`EncodingError` unless every value is finite with
        ``|x| < 2^(63 - frac_bits)``, the range whose scaled form fits in
        a signed 64-bit integer.
        """
        arr = np.asarray(x, dtype=np.float64)
        exponent = RING_BITS - 1 - self.frac_bits
        bound = float(2**exponent)
        # NaN fails both comparisons, so min/max alone catch NaN and inf.
        if arr.size and not (-bound < arr.min() and arr.max() < bound):
            bad = ~(np.abs(arr) < bound)
            not_nan = np.abs(arr[~np.isnan(arr)])
            peak = not_nan.max() if not_nan.size else float("nan")
            raise EncodingError(
                f"{int(bad.sum())} of {arr.size} value(s) cannot be encoded at "
                f"frac_bits={self.frac_bits}: max |x| = {peak:g}, need finite "
                f"|x| < 2^{exponent} = {bound:g}"
            )
        scaled = np.rint(arr * self.scale)
        # int64 cast gives two's complement; viewing as uint64 lands the
        # value in the ring without a Python-level mod.
        return scaled.astype(np.int64).view(np.uint64)

    def decode(self, x: np.ndarray, *, double_scale: bool = False) -> np.ndarray:
        """Decode ring elements back to floats.

        With ``double_scale=True`` the input is interpreted as carrying
        ``2 * frac_bits`` fractional bits (an untruncated product).
        """
        arr = np.asarray(x, dtype=np.uint64)
        signed = arr.view(np.int64).astype(np.float64)
        scale = float(self.scale) ** (2 if double_scale else 1)
        return signed / scale

    def encode_int(self, x: np.ndarray) -> np.ndarray:
        """Embed *integers* into the ring without fractional scaling."""
        return np.asarray(x).astype(np.int64).view(np.uint64)
