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
from repro.mpc import comparison
from repro.mpc.comparison import (
    ComparisonDealer,
    _bit_planes,
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

    def test_gmw_round_messages_are_balanced(self, monkeypatch):
        """Each level of the borrow tree opens d = P_hi ^ u, e_g = G_lo ^
        v_g and e_p = P_lo ^ v_p, and B2A opens s ^ b.  Every such plane
        is uniformly random bits (masked by the shared-operand bit
        triplets and b), even when the wires it opens are constant: with
        x = 0 against c = 0 the public m equals r, so every leaf P is all
        ones and every leaf G zero."""
        for structured in (False, True):
            self._check_opened_planes(structured, monkeypatch)

    def _check_opened_planes(self, structured, monkeypatch):
        n = 64 * 1024
        rng = np.random.default_rng(0)
        if structured:
            x = np.zeros(n, dtype=np.uint64)
        else:
            x = FixedPointEncoder(13).encode(rng.normal(size=n))
        pair = share_secret(x, rng)
        bundle = ComparisonDealer(np.random.default_rng(1)).bundle((n,))
        r_ring = ring_add(bundle.r_arith[0], bundle.r_arith[1])
        m = ring_add(ring_add(pair.share0, pair.share1), r_ring)
        assert chi2_uniform_bytes(m) < CHI2_CEILING
        if structured:
            assert np.array_equal(m, r_ring)
            r = bundle.r_bits[0] ^ bundle.r_bits[1]
            p = ~(_bit_planes(m) ^ r)  # propagate: constant ones
            g = ~_bit_planes(m) & r  # generate: constant zeros
            assert (p == ~np.uint64(0)).all() and not g.any()
        opened = []
        real_open = comparison._open

        def recording_open(shares):
            opened.append(real_open(shares))
            return opened[-1]

        with monkeypatch.context() as patch:
            patch.setattr(comparison, "_open", recording_open)
            secure_ge_const(pair.share0, pair.share1, 0, bundle)
        # d, e_g, e_p of 16, 8, 4, 2, 1 combines (each level's lowest
        # opens no e_p), then the B2A plane
        assert [len(part) for part in opened[:-1]] == [
            16, 16, 15, 8, 8, 7, 4, 4, 3, 2, 2, 1, 1, 1, 0
        ]
        assert opened[-1].shape == (n // 64,)
        planes = [plane for part in opened[:-1] for plane in part] + [opened[-1]]
        assert len(planes) == 88 + 1
        for plane in planes:
            assert plane.shape == (n // 64,)
            assert chi2_uniform_bytes(plane) < CHI2_CEILING

    def test_padding_lanes_stay_out_of_outputs_and_accounting(self, rng, encoder):
        """65 elements occupy two words; the 63 padding lanes of the
        second are never unpacked into a share and never charged."""
        x = encoder.encode(rng.normal(size=(65,)))
        pair = share_secret(x, rng)
        bundle = ComparisonDealer(np.random.default_rng(0)).bundle(x.shape)
        assert bundle.and_u.shape == (2, 31, 2)
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
