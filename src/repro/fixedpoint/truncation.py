"""SecureML's local-share truncation protocol.

After a fixed-point multiplication the (secret-shared) product carries
``2 * frac_bits`` fractional bits.  Re-scaling an additively shared value
looks like it should need interaction, but SecureML (S&P'17, Theorem 1)
showed that when the underlying value ``x`` satisfies ``|x| < 2^(l-1) / 2
- 2^(l-1-lambda)`` each party can simply truncate *its own share*:

* party 0 computes ``floor(x0 / 2^d)``;
* party 1 computes ``2^64 - floor((2^64 - x1) / 2^d)`` (i.e. truncates the
  ring-complement and negates back).

The reconstruction then equals ``floor(x / 2^d)`` plus an error of at most
one unit in the last place, except with probability ~ ``2^{-lambda}``
where ``lambda`` is the slack between the value's magnitude bound and the
ring size — astronomically small for ML-scale values in a 64-bit ring.

``truncate_public`` is the plain (non-shared) counterpart used by the
baselines and by tests as ground truth.
"""

from __future__ import annotations

import numpy as np

from repro.fixedpoint.ring import RING_DTYPE, ring_neg
from repro.util.errors import ProtocolError


def truncate_public(x: np.ndarray, frac_bits: int) -> np.ndarray:
    """Arithmetic right-shift of a *public* ring value by ``frac_bits``.

    Interprets ``x`` as two's complement, shifts, and re-embeds, so the
    result matches the signed semantics of the fixed-point encoding.
    """
    signed = np.asarray(x, dtype=RING_DTYPE).view(np.int64)
    return (signed >> np.int64(frac_bits)).view(RING_DTYPE)


def truncate_share(
    share: np.ndarray,
    frac_bits: int,
    party_id: int,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Truncate one additive share per the SecureML local protocol.

    Parameters
    ----------
    share:
        This party's additive share (uint64 ring elements).
    frac_bits:
        Number of low bits to drop (the extra fractional scale).
    party_id:
        0 or 1; party 1 truncates the complement so that the two local
        results still sum to the truncated secret.
    out:
        Optional uint64 destination (may alias ``share``); party 1's
        neg-shift-neg then runs fully in place.  Without it the party-1
        path still reuses one scratch buffer for all three steps instead
        of allocating per step.
    """
    if party_id not in (0, 1):
        raise ProtocolError(f"party_id must be 0 or 1, got {party_id}")
    x = np.asarray(share, dtype=RING_DTYPE)
    d = np.uint64(frac_bits)
    if party_id == 0:
        if out is None:
            return x >> d
        return np.right_shift(x, d, out=out)
    neg = ring_neg(x, out=out)
    np.right_shift(neg, d, out=neg)
    return ring_neg(neg, out=neg)


def rescale_share(share: np.ndarray, frac_bits: int, party_id: int) -> np.ndarray:
    """A product's share, which its caller owns, truncated in place by
    ``frac_bits`` (:func:`truncate_share`); ``frac_bits`` 0 returns it
    as is.  The rescale a fixed x fixed product runs in its own last
    pass."""
    return truncate_share(share, frac_bits, party_id, out=share) if frac_bits else share
