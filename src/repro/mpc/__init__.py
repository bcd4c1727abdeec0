"""Two-party-computation substrate.

This package implements the cryptographic core that both SecureML (the
baseline) and ParSecureML (the accelerated framework) run on:

* :mod:`repro.mpc.shares` — additive secret sharing over Z_{2^64};
* :mod:`repro.mpc.triplets` — Beaver multiplication triplets for matrix,
  elementwise, and convolution products (the client/offline phase);
* :mod:`repro.mpc.protocol` — one server's share of an elementwise
  Beaver product (paper Eq. 8), independent of any transport;
* :mod:`repro.mpc.comparison` — dealer-assisted secure comparison used by
  the piecewise-linear activation (paper Eq. 9).
"""

from repro.mpc.shares import share_secret, reconstruct, SharePair
from repro.mpc.triplets import MatrixTriplet, ElementwiseTriplet
from repro.mpc.protocol import beaver_elementwise_share
from repro.mpc.comparison import ComparisonDealer, secure_ge_const

__all__ = [
    "share_secret",
    "reconstruct",
    "SharePair",
    "MatrixTriplet",
    "ElementwiseTriplet",
    "beaver_elementwise_share",
    "ComparisonDealer",
    "secure_ge_const",
]
