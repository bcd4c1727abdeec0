"""One server's share of an elementwise Beaver product (paper Eq. 8's
Hadamard form).

Server ``i`` holds shares ``A_i, B_i`` and a triplet share
``(U_i, V_i, Z_i)``; after the servers open ``E = A - U`` and
``F = B - V`` it computes

    C_i = (-i) * E * F + A_i * F + E * B_i + Z_i

``E`` and ``F`` reveal nothing: they are the secrets one-time-padded by
the uniform masks ``U, V``.  Pure computation; the exchange is wired in
:mod:`repro.protocols.beaver2pc`.
"""

from __future__ import annotations

import numpy as np

from repro.fixedpoint.ring import ring_add, ring_mul, ring_sub
from repro.mpc.triplets import TripletShare
from repro.util.errors import ProtocolError


def beaver_elementwise_share(
    party_id: int,
    e: np.ndarray,
    f: np.ndarray,
    a_share: np.ndarray,
    b_share: np.ndarray,
    triplet: TripletShare,
) -> np.ndarray:
    """Compute ``C_i`` for an elementwise (Hadamard) product.

    Same algebra as Eq. 6 with ``@`` replaced by ``*``; used by the CNN's
    point-to-point multiplications (paper Section 7.2) and by activation
    derivatives.
    """
    if party_id not in (0, 1):
        raise ProtocolError(f"party_id must be 0 or 1, got {party_id}")
    if triplet.party_id != party_id:
        raise ProtocolError(
            f"triplet share belongs to party {triplet.party_id}, used by party {party_id}"
        )
    triplet.mark_consumed()
    c = ring_add(ring_mul(a_share, f), ring_mul(e, b_share))
    if party_id == 1:
        c = ring_sub(c, ring_mul(e, f))
    return ring_add(c, triplet.z)
