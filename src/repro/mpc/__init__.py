"""Two-party-computation substrate.

This package implements the cryptographic core that both SecureML (the
baseline) and ParSecureML (the accelerated framework) run on:

* :mod:`repro.mpc.shares` — additive secret sharing over Z_{2^64};
* :mod:`repro.mpc.prandom` — thread-safe pools of random generators (the
  per-thread MT19937 design of paper Section 5.1, realised with NumPy
  bit generators);
* :mod:`repro.mpc.triplets` — Beaver multiplication triplets for matrix,
  elementwise, and convolution products (the client/offline phase);
* :mod:`repro.mpc.protocol` — the online masked-multiplication protocol
  (paper Eqs. 4-8), independent of any transport;
* :mod:`repro.mpc.comparison` — dealer-assisted secure comparison used by
  the piecewise-linear activation (paper Eq. 9).
"""

from repro.mpc.shares import share_secret, reconstruct, SharePair
from repro.mpc.prandom import ThreadSafeGeneratorPool, parallel_uniform_ring
from repro.mpc.triplets import (
    MatrixTriplet,
    ElementwiseTriplet,
    TripletDealer,
)
from repro.mpc.protocol import (
    masked_difference,
    combine_masked,
    beaver_matmul_share,
    beaver_elementwise_share,
    secure_matmul_plain,
)
from repro.mpc.comparison import ComparisonDealer, secure_ge_const

__all__ = [
    "share_secret",
    "reconstruct",
    "SharePair",
    "ThreadSafeGeneratorPool",
    "parallel_uniform_ring",
    "MatrixTriplet",
    "ElementwiseTriplet",
    "TripletDealer",
    "masked_difference",
    "combine_masked",
    "beaver_matmul_share",
    "beaver_elementwise_share",
    "secure_matmul_plain",
    "ComparisonDealer",
    "secure_ge_const",
]
