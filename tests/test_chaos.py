"""Chaos suite: faults move time and counters, never numerics.

Every test here carries the ``chaos`` marker; CI runs the suite under a
set of fixed seeds via ``REPRO_CHAOS_SEEDS`` (comma- or
space-separated), defaulting to seed 0 for a plain local run.
"""

import os

import numpy as np
import pytest
from chaos_harness import default_chaos_matrix, train_mlp_under_plan, unrecoverable_plan

from repro.core.config import FrameworkConfig
from repro.core.context import SecureContext
from repro.core.inference import secure_predict
from repro.core.models import SecureMLP
from repro.faults import FaultPlan, PartyCrash, PartyFailure

pytestmark = pytest.mark.chaos


def _seeds() -> list[int]:
    raw = os.environ.get("REPRO_CHAOS_SEEDS", "0")
    return [int(tok) for tok in raw.replace(",", " ").split()]


SEEDS = _seeds()
PLAN_NAMES = [name for name, _ in default_chaos_matrix(0)]


@pytest.fixture(scope="module")
def baseline():
    """The fault-free run every chaos run must reproduce bit-for-bit."""
    return train_mlp_under_plan(None)


class TestChaosEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", PLAN_NAMES)
    def test_recoverable_plan_is_bit_identical(self, name, seed, baseline):
        plan = dict(default_chaos_matrix(seed))[name]
        result = train_mlp_under_plan(plan)
        assert result.weights_equal(baseline), f"{name}/seed={seed} diverged"
        assert result.losses == baseline.losses
        activity = result.fault_activity()
        assert activity.get("faults.injected", 0) > 0, (
            f"plan {name}/seed={seed} never fired; rates too low for this traffic"
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_recovery_shows_up_in_makespan_not_weights(self, seed, baseline):
        plan = dict(default_chaos_matrix(seed))["drop"]
        result = train_mlp_under_plan(plan)
        # retransmissions and backoff waits are charged on the clock
        assert result.report.online_s > baseline.report.online_s
        activity = result.fault_activity()
        assert activity.get("faults.retransmits", 0) > 0
        assert activity.get("faults.retransmit_bytes", 0) > 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_crash_recovery_replays_from_checkpoint(self, seed, baseline):
        plan = dict(default_chaos_matrix(seed))["crash-restart"]
        result = train_mlp_under_plan(plan)
        assert result.weights_equal(baseline)
        assert result.report.party_restarts == 1
        assert result.report.batches_replayed >= 1
        assert result.report.checkpoints_written >= 1
        activity = result.fault_activity()
        assert activity.get("faults.party_restarts", 0) >= 1
        assert activity.get("faults.batches_replayed", 0) >= 1

    def test_same_plan_reproduces_itself(self):
        plan = dict(default_chaos_matrix(11))["mixed"]
        first = train_mlp_under_plan(plan)
        second = train_mlp_under_plan(plan)
        assert first.weights_equal(second)
        assert first.fault_activity() == second.fault_activity()


class TestUnrecoverable:
    def test_total_loss_names_the_faulty_party(self):
        with pytest.raises(PartyFailure) as exc:
            train_mlp_under_plan(
                unrecoverable_plan(), max_restarts=0, checkpoint_every=None
            )
        assert exc.value.party in ("server0", "server1")
        assert exc.value.blame.reason == "retry-exhausted"
        assert exc.value.party in str(exc.value)

    def test_unrestartable_crash_names_the_crashed_party(self):
        plan = FaultPlan(crashes=(PartyCrash("server1", at_step=1),))
        with pytest.raises(PartyFailure) as exc:
            train_mlp_under_plan(plan, max_restarts=0, checkpoint_every=None)
        assert exc.value.party == "server1"
        assert exc.value.blame.reason == "crash"


class TestInferenceRetry:
    def _predict(self, plan):
        config = FrameworkConfig.parsecureml(fault_plan=plan)
        ctx = SecureContext.create(config)
        model = SecureMLP(ctx, 10, hidden=(5,), n_out=2)
        x = np.random.default_rng(3).normal(size=(16, 10)) * 0.25
        return secure_predict(ctx, model, x, batch_size=8)

    def test_failed_request_is_retried_and_bit_identical(self):
        clean = self._predict(None)
        plan = FaultPlan(crashes=(PartyCrash("server1", at_step=2),))
        faulty = self._predict(plan)
        assert faulty.retried_batches >= 1
        np.testing.assert_array_equal(clean.predictions, faulty.predictions)

    def test_retry_budget_exhaustion_reraises(self):
        config = FrameworkConfig.parsecureml(fault_plan=unrecoverable_plan())
        ctx = SecureContext.create(config)
        model = SecureMLP(ctx, 10, hidden=(5,), n_out=2)
        x = np.random.default_rng(3).normal(size=(8, 10)) * 0.25
        with pytest.raises(PartyFailure):
            secure_predict(ctx, model, x, batch_size=8, max_request_retries=1)
