"""Security-model invariants across the stack.

Semi-honest, two non-colluding servers: anything a *single* server sees
must be statistically independent of the secrets.  These tests check
the marginal-uniformity property at each layer's boundary, plus the
discipline rules (single-use triplets and comparison bundles).
"""

import numpy as np
import pytest

from conftest import make_ctx
from repro.core import ops
from repro.core.tensor import SharedTensor
from repro.fixedpoint.encoding import FixedPointEncoder
from repro.fixedpoint.ring import ring_add
from repro.mpc.comparison import (
    ComparisonDealer,
    comparison_offline_bytes,
    comparison_online_bytes,
    secure_ge_const,
)
from repro.mpc.shares import share_secret

pytestmark = pytest.mark.security


def chi2_uniform_bytes(arr: np.ndarray) -> float:
    data = arr.reshape(-1).view(np.uint8)
    counts = np.bincount(data, minlength=256)
    expected = data.size / 256
    return float(((counts - expected) ** 2 / expected).sum())


# 255 dof; mean 255, sd ~22.6; 420 is ~7 sigma.
CHI2_CEILING = 420.0


class TestShareViews:
    def test_server_view_of_constant_secret(self, ctx):
        """Sharing the most structured possible secret still yields
        uniform-looking shares."""
        t = SharedTensor.from_plain(ctx, np.ones((128, 128)))
        assert chi2_uniform_bytes(t.shares[0]) < CHI2_CEILING
        assert chi2_uniform_bytes(t.shares[1]) < CHI2_CEILING

    def test_matmul_output_shares_look_uniform(self, ctx, rng):
        """Pre-truncation output shares carry the uniform Z_i mask.

        (Post-truncation shares are range-reduced by the local shift —
        still independent of the secret, but no longer byte-uniform;
        that is SecureML's documented behaviour, not a leak.)"""
        a = SharedTensor.from_plain(ctx, rng.normal(size=(64, 64)))
        b = SharedTensor.from_plain(ctx, np.zeros((64, 64)))
        out = ops.secure_matmul(a, b, label="sec", truncate_result=False)
        assert chi2_uniform_bytes(out.shares[0]) < CHI2_CEILING
        assert chi2_uniform_bytes(out.shares[1]) < CHI2_CEILING

    def test_comparison_output_shares_look_uniform(self, ctx, rng):
        x = SharedTensor.from_plain(ctx, rng.normal(size=(64, 64)))
        ind = ops.secure_compare_const(x, 0.0, label="sec")
        # indicator shares are additive shares of 0/1: each marginal uniform
        assert chi2_uniform_bytes(ind.shares[0]) < CHI2_CEILING


class TestMaskedOpenings:
    def test_e_f_openings_are_one_time_padded(self, ctx):
        """What actually crosses the wire (E_i, F_i) must be uniform even
        for adversarially structured inputs."""
        x = SharedTensor.from_plain(ctx, np.zeros((64, 64)))
        y = SharedTensor.from_plain(ctx, np.eye(64))
        ops.secure_matmul(x, y, label="wire")
        # reconstruct what server 1 received: E_0 = x_0 - U_0
        trip = ctx.get_matrix_triplet("wire", (64, 64), (64, 64))
        e0 = (x.shares[0] - trip.u[0]).astype(np.uint64)
        assert chi2_uniform_bytes(e0) < CHI2_CEILING

    def test_gmw_round_messages_are_balanced(self):
        """The d/e openings inside the comparison are uniformly random
        bits (masked by the Beaver bit triplets), even when the wires
        they open are not."""
        n = 4096
        bundle = ComparisonDealer(np.random.default_rng(0)).bundle((n,))
        # All-zero x against c = 0: y = 0, so the public m equals r.
        m = ring_add(bundle.r_arith[0], bundle.r_arith[1])
        assert chi2_uniform_bytes(m) < CHI2_CEILING

        def plane(k):  # bit k of every element of m, 64 elements a word
            bits = ((m >> np.uint64(k)) & np.uint64(1)).astype(np.uint8)
            return np.packbits(bits, bitorder="little").view(np.uint64)

        def ones(words):
            return int(np.unpackbits(words.view(np.uint8)).sum())

        r_planes = bundle.r_bits0 ^ bundle.r_bits1
        # Round 1 ANDs p_1 = NOT (m_1 XOR r_1) with borrow_1 = NOT m_0 AND r_0.
        p = ~(plane(1) ^ r_planes[1])
        borrow = ~plane(0) & r_planes[0]
        assert ones(p) == n  # m == r: the propagate wire is constant ...
        assert ones(borrow) == 0  # ... and so is the borrow wire
        d = p ^ bundle.and_u0[0] ^ bundle.and_u1[0]
        e = borrow ^ bundle.and_v0[0] ^ bundle.and_v1[0]
        # Binomial(n, 1/2): sd = sqrt(n)/2 = 32; allow 5 sd.
        assert abs(ones(d) - n // 2) < 160
        assert abs(ones(e) - n // 2) < 160

    def test_padding_lanes_stay_out_of_outputs_and_accounting(self, rng, encoder):
        """65 elements occupy two words; the 63 padding lanes of the
        second are never unpacked into a share and never charged."""
        x = encoder.encode(rng.normal(size=(65,)))
        pair = share_secret(x, rng)
        bundle = ComparisonDealer(np.random.default_rng(0)).bundle(x.shape)
        assert bundle.and_u0.shape == (63, 2)
        res = secure_ge_const(pair.share0, pair.share1, 0, bundle)
        assert res.share0.shape == res.share1.shape == (65,)
        assert res.online_bytes == comparison_online_bytes(65)
        assert bundle.offline_bytes == 2 * comparison_offline_bytes(65)
        assert np.array_equal(
            ring_add(res.share0, res.share1), (x.view(np.int64) >= 0).astype(np.uint64)
        )


class TestDiscipline:
    def test_mask_reuse_caveat_is_explicit(self):
        """The paper-faithful default reuses masks per value; the config
        documents it and fresh_triplets=True restores single-use."""
        from repro.core.config import FrameworkConfig

        assert FrameworkConfig.parsecureml().fresh_triplets is False
        import inspect

        src = inspect.getsource(FrameworkConfig)
        assert "fresh_triplets" in src and "reused" in src

    def test_distinct_streams_get_distinct_masks(self, ctx):
        t1 = ctx.get_matrix_triplet("layerA", (16, 16), (16, 16))
        t2 = ctx.get_matrix_triplet("layerB", (16, 16), (16, 16))
        assert not np.array_equal(t1.u.share0, t2.u.share0)
