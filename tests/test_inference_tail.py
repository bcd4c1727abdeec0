"""Tail-batch correctness for the secure inference driver.

Regression suite for the silent tail-drop bug: the old batch loop
(``range(0, n - batch_size + 1, batch_size)``) skipped any ragged tail,
so ``n % batch_size`` rows simply vanished from ``predictions`` (and an
``n < batch_size`` input produced an empty 1-D array).  The fixed driver
pads ragged tails to the full batch shape, trims after decoding, and
must return exactly ``x.shape[0]`` predictions for any ``n >= 1``.
"""

import numpy as np
import pytest

from repro.core.config import FrameworkConfig
from repro.core.context import SecureContext
from repro.core.inference import secure_predict
from repro.core.models import SecureMLP
from repro.core.tensor import SharedTensor
from repro.faults import FaultPlan, PartyCrash
from repro.util.errors import ConfigError


def _mlp_ctx(**overrides):
    ctx = SecureContext(FrameworkConfig.parsecureml(**overrides))
    model = SecureMLP(ctx, 12, hidden=(6,), n_out=3)
    return ctx, model


class TestTailBatches:
    def test_ragged_tail_is_served(self, rng):
        """n % batch_size != 0: every row comes back, tail included."""
        ctx, model = _mlp_ctx()
        x = rng.normal(size=(50, 12)) * 0.25
        rep = secure_predict(ctx, model, x, batch_size=16)
        assert rep.predictions.shape == (50, 3)
        assert rep.samples == 50
        assert rep.dataset_samples == 50
        assert rep.batches == 4  # 16+16+16+2
        assert rep.padded_rows == 14
        assert ctx.telemetry.snapshot().counter("infer.padded_rows") == 14

    def test_input_smaller_than_batch(self, rng):
        """n < batch_size used to return zero predictions; now n rows."""
        ctx, model = _mlp_ctx()
        x = rng.normal(size=(5, 12)) * 0.25
        rep = secure_predict(ctx, model, x, batch_size=64)
        assert rep.predictions.shape == (5, 3)
        assert rep.samples == 5
        assert rep.batches == 1
        assert rep.padded_rows == 59

    def test_single_row(self, rng):
        ctx, model = _mlp_ctx()
        rep = secure_predict(ctx, model, rng.normal(size=(1, 12)), batch_size=32)
        assert rep.predictions.shape == (1, 3)
        assert rep.samples == 1

    def test_empty_input_is_rejected(self):
        """n == 0 has nothing to serve, as a serving request with no rows."""
        ctx, model = _mlp_ctx()
        with pytest.raises(ConfigError, match=r"\(0, 12\)"):
            secure_predict(ctx, model, np.zeros((0, 12)), batch_size=16)

    def test_exact_multiple_has_no_padding(self, rng):
        ctx, model = _mlp_ctx()
        rep = secure_predict(ctx, model, rng.normal(size=(32, 12)), batch_size=16)
        assert rep.predictions.shape == (32, 3)
        assert rep.padded_rows == 0

    def test_tail_rows_are_accurate(self, rng):
        """The padded tail decodes to the same values as plaintext."""
        ctx, model = _mlp_ctx()
        x = rng.normal(size=(37, 12)) * 0.25
        rep = secure_predict(ctx, model, x, batch_size=16)
        w = [la.weight.decode() for la in model.layers if hasattr(la, "weight")]
        b = [la.bias.decode() for la in model.layers if hasattr(la, "bias")]
        ref = np.maximum(x @ w[0] + b[0], 0.0) @ w[1] + b[1]
        # the tail batch (rows 32..37) must be as accurate as the full ones
        assert np.allclose(rep.predictions[32:], ref[32:], atol=2e-2)
        assert np.allclose(rep.predictions, ref, atol=2e-2)

    def test_full_batches_bit_identical_to_truncated_run(self, rng):
        """Padding the tail must not perturb the full batches before it.

        Two identically-seeded deployments over the same input: the run
        that stops after batch 0 (``max_batches=1``, pre-tail) and the
        full run must agree bit-for-bit on batch 0's rows.
        """
        x = np.random.default_rng(77).normal(size=(50, 12)) * 0.25
        ctx_a, model_a = _mlp_ctx()
        full = secure_predict(ctx_a, model_a, x, batch_size=32)
        ctx_b, model_b = _mlp_ctx()
        head = secure_predict(ctx_b, model_b, x, batch_size=32, max_batches=1)
        assert head.samples == 32 and head.batches == 1
        np.testing.assert_array_equal(full.predictions[:32], head.predictions)

    def test_rejects_non_2d_input(self):
        ctx, model = _mlp_ctx()
        with pytest.raises(ConfigError):
            secure_predict(ctx, model, np.zeros((4, 3, 2)))


class TestRowSlicePadding:
    def test_pad_rows_decode_to_zero(self, ctx, rng):
        x = rng.normal(size=(5, 4))
        xs = SharedTensor.from_plain(ctx, x)
        padded = xs.row_slice(2, 5, pad_to=8)
        assert padded.shape == (8, 4)
        dec = padded.decode()
        assert np.allclose(dec[:3], x[2:5], atol=1e-3)
        np.testing.assert_array_equal(dec[3:], np.zeros((5, 4)))

    def test_no_padding_when_full(self, ctx, rng):
        xs = SharedTensor.from_plain(ctx, rng.normal(size=(6, 3)))
        sliced = xs.row_slice(0, 6, pad_to=6)
        assert sliced.shape == (6, 3)


class TestRetryAccounting:
    def _predict(self, plan, n=20):
        ctx = SecureContext(
            FrameworkConfig.parsecureml(fault_plan=plan)
        )
        model = SecureMLP(ctx, 10, hidden=(5,), n_out=2)
        x = np.random.default_rng(3).normal(size=(n, 10)) * 0.25
        return secure_predict(ctx, model, x, batch_size=8)

    def test_retry_time_reported_separately(self):
        """Failed attempts must not inflate batch_online_s / marginal cost."""
        clean = self._predict(None)
        plan = FaultPlan(crashes=(PartyCrash("server1", at_step=2),))
        faulty = self._predict(plan)
        assert faulty.retried_batches >= 1
        assert faulty.retry_online_s > 0.0
        assert clean.retry_online_s == 0.0
        # per-batch timings cover successful attempts only, so the
        # steady-state per-batch cost matches the clean run's
        def marginal(rep):
            return np.mean(rep.batch_online_s[1:])

        assert marginal(faulty) == pytest.approx(marginal(clean), rel=0.05)
        # the wasted time is real, though: it shows in the makespan
        assert faulty.online_s > clean.online_s
        assert faulty.online_s == pytest.approx(
            sum(faulty.batch_online_s) + faulty.retry_online_s, rel=1e-6
        )

    def test_retried_tail_batch_is_bit_identical(self):
        """A crash during the padded tail batch still recovers exactly."""
        clean = self._predict(None, n=19)  # tail batch of 3 rows
        plan = FaultPlan(crashes=(PartyCrash("server0", at_step=3),))
        faulty = self._predict(plan, n=19)
        assert faulty.retried_batches >= 1
        assert faulty.predictions.shape == (19, 2)
        np.testing.assert_array_equal(clean.predictions, faulty.predictions)


class TestBatchSize:
    @pytest.mark.parametrize("batch_size", [0, -4])
    def test_a_batch_size_below_one_is_a_config_error_naming_it(self, batch_size):
        """``batch_size=0`` used to surface as ``range()``'s bare
        ValueError, and a negative one served no row at all."""
        ctx, model = _mlp_ctx()
        with pytest.raises(ConfigError, match="batch_size"):
            secure_predict(ctx, model, np.zeros((4, 12)), batch_size=batch_size)

    @pytest.mark.parametrize("max_batches", [0, -4])
    def test_max_batches_below_one_is_a_config_error_naming_it(self, max_batches):
        """``max_batches`` was checked only after a batch was served, so
        ``max_batches=0`` still served one (16 predictions of 40 rows)."""
        ctx, model = _mlp_ctx()
        with pytest.raises(ConfigError, match="max_batches"):
            secure_predict(ctx, model, np.zeros((40, 12)), batch_size=16, max_batches=max_batches)
