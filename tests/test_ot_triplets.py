"""OT-based dealer-free triplet generation (the SecureML offline)."""

import numpy as np
import pytest

from repro.fixedpoint.ring import ring_mul
from repro.mpc.ot_triplets import (
    OTTripletGenerator,
    _ot_multiply,
    ot_triplet_offline_cost,
)
from repro.mpc.shares import reconstruct

# Nothing in the system calls repro.mpc.ot_triplets (the dealer deals
# every triplet); CI runs this file in its own step.
pytestmark = pytest.mark.slow


class TestOTMultiply:
    @pytest.mark.parametrize(
        "a,b",
        [(0, 0), (1, 1), (3, 5), (2**63, 2), (2**64 - 1, 2**64 - 1), (12345, 987654321)],
    )
    def test_shares_sum_to_product(self, a, b):
        rng = np.random.default_rng(0)
        s0, s1 = _ot_multiply(a, b, rng)
        assert (s0 + s1) % 2**64 == (a * b) % 2**64

    def test_randomised_inputs(self, rng):
        for _ in range(3):
            a = int(rng.integers(0, 2**64, dtype=np.uint64))
            b = int(rng.integers(0, 2**64, dtype=np.uint64))
            s0, s1 = _ot_multiply(a, b, np.random.default_rng(1))
            assert (s0 + s1) % 2**64 == (a * b) % 2**64

    def test_share_alone_is_masked(self):
        """Server 0's share of a*b must not depend on b in the clear."""
        s0_a, _ = _ot_multiply(7, 1, np.random.default_rng(5))
        s0_b, _ = _ot_multiply(7, 2**40, np.random.default_rng(5))
        # with identical sender randomness, server 0's share is the same
        # regardless of the receiver's input: the sender learns nothing
        assert s0_a == s0_b


class TestOTTripletGenerator:
    def test_triplet_identity(self):
        gen = OTTripletGenerator(seed=3)
        t = gen.elementwise_triplet((2, 2))
        u = reconstruct(t.u.share0, t.u.share1)
        v = reconstruct(t.v.share0, t.v.share1)
        w = reconstruct(t.z.share0, t.z.share1)
        assert np.array_equal(w, ring_mul(u, v))

    def test_stats_accounting(self):
        gen = OTTripletGenerator(seed=1)
        gen.elementwise_triplet((2, 1))
        assert gen.stats.elements == 2
        assert gen.stats.ot_instances == 2 * 64 * 2
        assert gen.stats.bytes_exchanged > 0

    def test_usable_in_the_online_protocol(self, rng, encoder):
        """A dealer-free triplet must drop into the standard Beaver flow."""
        from repro.mpc.protocol import (
            beaver_elementwise_share,
            combine_masked,
            masked_difference,
        )
        from repro.mpc.shares import share_secret
        from repro.fixedpoint.truncation import truncate_share

        gen = OTTripletGenerator(seed=9)
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2))
        ap = share_secret(encoder.encode(a), rng)
        bp = share_secret(encoder.encode(b), rng)
        trip = gen.elementwise_triplet((2, 2))
        e = combine_masked(
            masked_difference(ap[0], trip.u[0]), masked_difference(ap[1], trip.u[1])
        )
        f = combine_masked(
            masked_difference(bp[0], trip.v[0]), masked_difference(bp[1], trip.v[1])
        )
        c0 = beaver_elementwise_share(0, e, f, ap[0], bp[0], trip.share_for(0))
        c1 = beaver_elementwise_share(1, e, f, ap[1], bp[1], trip.share_for(1))
        out = encoder.decode(
            reconstruct(truncate_share(c0, 13, 0), truncate_share(c1, 13, 1))
        )
        np.testing.assert_allclose(out, a * b, atol=2**-10)


class TestCostModel:
    def test_cost_scales_linearly(self):
        s1, b1 = ot_triplet_offline_cost(100)
        s2, b2 = ot_triplet_offline_cost(200)
        assert s2 == pytest.approx(2 * s1)
        assert b2 == 2 * b1

    def test_ot_offline_dwarfs_dealer_offline(self):
        """SecureML's practical pain point: OT offline is orders of
        magnitude above the client-aided dealer's cost for the same
        number of triplets."""
        from repro.simgpu.cost import XEON_E5_2670V3_SPEC as cpu

        n = 128 * 128
        ot_seconds, _ = ot_triplet_offline_cost(n)
        dealer_seconds = cpu.rng_seconds(2 * n * 8, parallel=True) + cpu.elementwise_seconds(
            3 * n * 8, parallel=True
        )
        assert ot_seconds > 100 * dealer_seconds
