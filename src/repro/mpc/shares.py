"""Additive secret sharing over Z_{2^64}.

A secret matrix ``X`` (already fixed-point encoded into the ring) is split
as ``X = X0 + X1 (mod 2^64)`` where ``X0`` is uniform over the ring.  Each
single share is therefore statistically independent of the secret — the
property the paper's security argument (and our tests) rest on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fixedpoint.ring import RING_DTYPE, ring_add, ring_sub
from repro.util.errors import ProtocolError, ShapeError


def _uniform_ring(shape, rng: np.random.Generator) -> np.ndarray:
    """Sample uniformly from Z_{2^64} with the given generator."""
    # Generator.integers is exclusive of high and capped at int64 range
    # unless dtype=uint64 is given with high=2**64 via the 'high=None'
    # trick; drawing raw 64-bit words is both uniform and fast.
    return rng.integers(0, 2**64, size=shape, dtype=np.uint64)


@dataclass
class SharePair:
    """The two additive shares of one secret, as held by the client.

    The client produces a :class:`SharePair` and sends ``share0`` to
    server 0 and ``share1`` to server 1; the pair object itself never
    travels.
    """

    share0: np.ndarray
    share1: np.ndarray

    def __post_init__(self):
        if self.share0.shape != self.share1.shape:
            raise ShapeError(
                f"share shapes differ: {self.share0.shape} vs {self.share1.shape}"
            )
        if self.share0.dtype != RING_DTYPE or self.share1.dtype != RING_DTYPE:
            raise ProtocolError("shares must be uint64 ring elements")

    def __getitem__(self, party_id: int) -> np.ndarray:
        if party_id == 0:
            return self.share0
        if party_id == 1:
            return self.share1
        raise ProtocolError(f"party_id must be 0 or 1, got {party_id}")


def share_secret(secret: np.ndarray, rng: np.random.Generator) -> SharePair:
    """Split a ring-encoded secret into two additive shares.

    ``share0`` is sampled uniformly; ``share1 = secret - share0``.
    """
    secret = np.asarray(secret, dtype=RING_DTYPE)
    share0 = _uniform_ring(secret.shape, rng)
    share1 = ring_sub(secret, share0)
    return SharePair(share0=share0, share1=share1)


def reconstruct(share0: np.ndarray, share1: np.ndarray) -> np.ndarray:
    """Recombine two additive shares into the secret (client-side)."""
    if share0.shape != share1.shape:
        raise ShapeError(f"cannot reconstruct: shapes {share0.shape} vs {share1.shape}")
    return ring_add(share0, share1)
