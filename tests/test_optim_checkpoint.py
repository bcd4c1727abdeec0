"""Optimizers on shares and shared-model checkpointing."""

import json

import numpy as np
import pytest

from repro.audit.conformance import CONFORMANCE_MODELS, ConformanceCase, _tiny_workload
from repro.core.attention import SecureAttention
from repro.core.checkpoint import load_model, save_model
from repro.core.config import FrameworkConfig
from repro.core.context import SecureContext
from repro.core.models import SecureLinearRegression, SecureMLP
from repro.core.optim import SGD, AveragedSGD, MomentumSGD
from repro.core.tensor import SharedTensor
from repro.util.errors import ConfigError, ProtocolError


def make_problem(rng, n=192, d=8, out=2):
    x = rng.normal(size=(n, d)) * 0.5
    y = x @ (rng.normal(size=(d, out)) * 0.4)
    return x, y


def run_epochs(ctx, model, opt, x, y, epochs=8, batch=64):
    losses = []
    for _ in range(epochs):
        for lo in range(0, x.shape[0] - batch + 1, batch):
            xb = SharedTensor.from_plain(ctx, x[lo : lo + batch], label="x")
            yb = SharedTensor.from_plain(ctx, y[lo : lo + batch], label="y")
            pred = model.forward(xb, training=True)
            delta = pred - yb
            model.backward(delta)
            opt.step(model)
            losses.append(float(np.mean((pred.decode() - y[lo : lo + batch]) ** 2)))
    return losses


class TestOptimizers:
    def test_sgd_matches_builtin_apply(self, rng):
        from conftest import make_ctx

        x, y = make_problem(rng)
        # model A: built-in apply_gradients; model B: optim.SGD
        results = []
        for use_opt in (False, True):
            ctx = make_ctx(seed=11)
            model = SecureLinearRegression(ctx, 8, n_out=2)
            opt = SGD(lr=0.25)
            for lo in range(0, 128, 64):
                xb = SharedTensor.from_plain(ctx, x[lo : lo + 64], label="x")
                yb = SharedTensor.from_plain(ctx, y[lo : lo + 64], label="y")
                pred = model.forward(xb, training=True)
                model.backward(pred - yb)
                if use_opt:
                    opt.step(model)
                else:
                    model.apply_gradients(0.25)
            results.append([p.decode() for p in model.parameters()])
        for a, b in zip(results[0], results[1]):
            np.testing.assert_array_equal(a, b)

    def test_momentum_accelerates_convergence(self, ctx, rng):
        x, y = make_problem(rng)
        model = SecureLinearRegression(ctx, 8, n_out=2)
        losses = run_epochs(ctx, model, MomentumSGD(lr=0.1, momentum=0.875), x, y)
        assert losses[-1] < 0.1 * losses[0]

    def test_momentum_state_is_shared(self, ctx, rng):
        x, y = make_problem(rng)
        model = SecureLinearRegression(ctx, 8, n_out=2)
        opt = MomentumSGD(lr=0.1)
        run_epochs(ctx, model, opt, x, y, epochs=1)
        assert all(isinstance(v, SharedTensor) for v in opt._velocity.values())

    def test_averaged_sgd_average(self, ctx, rng):
        x, y = make_problem(rng)
        model = SecureLinearRegression(ctx, 8, n_out=2)
        opt = AveragedSGD(lr=0.25)
        run_epochs(ctx, model, opt, x, y, epochs=2)
        avg = opt.average("0/weight")
        assert avg.shape == (8, 2)
        # the average is a genuine shared tensor near the final iterate
        assert np.abs(avg.decode() - model.layers[0].weight.decode()).max() < 1.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            SGD(lr=0)
        with pytest.raises(ConfigError):
            MomentumSGD(momentum=1.0)
        with pytest.raises(ConfigError):
            AveragedSGD().average("nope")


class TestCheckpoint:
    def test_roundtrip(self, ctx, rng, tmp_path):
        from conftest import make_ctx

        model = SecureMLP(ctx, 6, hidden=(5,), n_out=2)
        save_model(model, tmp_path / "ckpt")

        ctx2 = make_ctx(seed=999)
        model2 = SecureMLP(ctx2, 6, hidden=(5,), n_out=2)
        load_model(model2, tmp_path / "ckpt")
        for a, b in zip(model.parameters(), model2.parameters()):
            np.testing.assert_array_equal(a.decode(), b.decode())

    def test_each_server_file_reveals_nothing(self, ctx, tmp_path):
        model = SecureLinearRegression(ctx, 4, n_out=1)
        save_model(model, tmp_path / "ckpt")
        share0 = np.load(tmp_path / "ckpt" / "server0.npz")["linreg/weight"]
        # a single archive holds one additive share: uniform-looking
        data = share0.reshape(-1).view(np.uint8)
        counts = np.bincount(data, minlength=256)
        assert counts.max() < 4 * max(1, data.size // 256) + 8

    def test_frac_bits_mismatch_rejected(self, ctx, tmp_path):
        from conftest import make_ctx

        model = SecureLinearRegression(ctx, 4, n_out=1)
        save_model(model, tmp_path / "ckpt")
        ctx2 = make_ctx(frac_bits=10)
        model2 = SecureLinearRegression(ctx2, 4, n_out=1)
        with pytest.raises(ProtocolError):
            load_model(model2, tmp_path / "ckpt")

    def test_inventory_mismatch_rejected(self, ctx, tmp_path):
        from conftest import make_ctx

        model = SecureLinearRegression(ctx, 4, n_out=1)
        save_model(model, tmp_path / "ckpt")
        ctx2 = make_ctx(seed=1)
        other = SecureMLP(ctx2, 4, hidden=(3,), n_out=1)
        with pytest.raises(ProtocolError):
            load_model(other, tmp_path / "ckpt")

    def test_missing_manifest(self, ctx, tmp_path):
        model = SecureLinearRegression(ctx, 4, n_out=1)
        with pytest.raises(ConfigError):
            load_model(model, tmp_path / "nowhere")

    def test_shape_mismatch_rejected(self, ctx, tmp_path):
        from conftest import make_ctx

        model = SecureLinearRegression(ctx, 4, n_out=1)
        save_model(model, tmp_path / "ckpt")
        ctx2 = make_ctx(seed=2)
        wrong = SecureLinearRegression(ctx2, 5, n_out=1)
        with pytest.raises(ProtocolError):
            load_model(wrong, tmp_path / "ckpt")


class TestEveryParameterIsCheckpointed:
    """A checkpoint holds exactly ``model.parameters()`` — whatever the
    layer calls its tensors — or refuses to be written."""

    @pytest.mark.parametrize("backend", ("beaver2pc", "rep3"))
    @pytest.mark.parametrize("model_name", CONFORMANCE_MODELS)
    def test_fresh_context_load_restores_every_tensor(self, model_name, backend, tmp_path):
        models = []
        for seed in (0, 999):
            case = ConformanceCase(model=model_name, axis="baseline", seed=seed, backend=backend)
            models.append(_tiny_workload(case)[2](SecureContext.create(case.config())))
        saved, fresh = models
        assert any(
            not np.array_equal(a.decode(), b.decode())
            for a, b in zip(saved.parameters(), fresh.parameters())
        )
        save_model(saved, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(manifest["parameters"]) == len(saved.parameters())
        load_model(fresh, tmp_path)
        for a, b in zip(saved.parameters(), fresh.parameters()):
            np.testing.assert_array_equal(a.decode(), b.decode())

    def test_attention_names_its_fused_projection(self, ctx, tmp_path):
        save_model(SecureAttention(ctx, 3, 4), tmp_path)
        names = {p["name"] for p in json.loads((tmp_path / "manifest.json").read_text())["parameters"]}
        assert names == {"attn/w_qkv", "attn/w_o", "attnout/weight", "attnout/bias"}

    def test_parameter_no_attribute_names_is_refused(self, ctx, tmp_path):
        model = SecureLinearRegression(ctx, 4, n_out=1)
        hidden = SharedTensor.from_plain(ctx, np.zeros((2, 2)), label="hidden")
        dense = model.layers[0]
        dense.parameters = lambda: [dense.weight, dense.bias, hidden]
        with pytest.raises(ConfigError, match=r"1 tensor\(s\).*\(2, 2\)"):
            save_model(model, tmp_path)
        assert not (tmp_path / "manifest.json").exists()

    def test_attention_resumes_from_its_checkpoint_after_a_party_restart(self):
        """The recovery path restores the block's weights too: a crash at
        batch 3 replays from the batch-2 checkpoint onto exactly the
        uninterrupted run's shares."""
        from repro.core.training import SecureTrainer
        from repro.faults import FaultPlan, PartyCrash
        from repro.faults.chaos import snapshot_weights

        rng = np.random.default_rng(7)
        x = 0.5 * rng.standard_normal((32, 12))
        y = np.eye(3)[rng.integers(0, 3, size=32)]
        weights, reports = [], []
        for plan in (None, FaultPlan(crashes=(PartyCrash("server1", at_step=4),))):
            run_ctx = SecureContext.create(FrameworkConfig.parsecureml(fault_plan=plan))
            model = SecureAttention(run_ctx, 3, 4)
            trainer = SecureTrainer(run_ctx, model, lr=0.125, checkpoint_every=2)
            reports.append(trainer.train(x, y, batch_size=8))
            weights.append(snapshot_weights(model))
        assert (reports[0].party_restarts, reports[1].party_restarts) == (0, 1)
        assert reports[1].batches_replayed >= 1
        assert weights[0].keys() == weights[1].keys() and "attn/w_qkv" in weights[0]
        for name, shares in weights[0].items():
            for ours, theirs in zip(shares, weights[1][name]):
                np.testing.assert_array_equal(ours, theirs, err_msg=name)


class TestMidTrainingCheckpoint:
    """Save/load round-trips taken in the middle of a training run."""

    def _train_batches(self, ctx, model, x, y, offsets, lr=0.0625):
        for lo in offsets:
            xb = SharedTensor.from_plain(ctx, x[lo : lo + 8], label=f"x{lo}")
            yb = SharedTensor.from_plain(ctx, y[lo : lo + 8], label=f"y{lo}")
            model.train_batch(xb, yb, lr)

    def test_extra_metadata_roundtrip(self, ctx, tmp_path):
        model = SecureMLP(ctx, 6, hidden=(4,), n_out=2)
        save_model(
            model, tmp_path / "ckpt", extra={"batch": 3, "losses": [0.5, 0.25, 0.125]}
        )
        extra = load_model(model, tmp_path / "ckpt")
        assert extra == {"batch": 3, "losses": [0.5, 0.25, 0.125]}
        # no extra saved -> empty dict back, never None
        save_model(model, tmp_path / "plain")
        assert load_model(model, tmp_path / "plain") == {}

    def test_midrun_save_restores_bit_exact_shares(self, ctx, rng, tmp_path):
        x = rng.normal(size=(16, 6)) * 0.5
        y = rng.normal(size=(16, 2)) * 0.5
        model = SecureMLP(ctx, 6, hidden=(4,), n_out=2)
        self._train_batches(ctx, model, x, y, offsets=[0])  # batch 0 done
        saved = [(p.shares[0].copy(), p.shares[1].copy()) for p in model.parameters()]
        save_model(model, tmp_path / "ckpt", extra={"batch": 1})

        self._train_batches(ctx, model, x, y, offsets=[8])  # keep training past it
        extra = load_model(model, tmp_path / "ckpt")
        assert extra["batch"] == 1
        for (s0, s1), p in zip(saved, model.parameters()):
            np.testing.assert_array_equal(s0, p.shares[0])
            np.testing.assert_array_equal(s1, p.shares[1])

    def test_resume_from_batch_k_is_bit_equal_to_uninterrupted(self):
        """Restoring the batch-k checkpoint and replaying the tail of the
        run lands on exactly the weights of the uninterrupted run — the
        guarantee the fault-recovery path (repro.faults) is built on."""
        from repro.faults import FaultPlan, PartyCrash
        from repro.faults.chaos import train_mlp_under_plan

        uninterrupted = train_mlp_under_plan(None, batches=4)
        # crash at batch 2: recovery restores the batch-2 checkpoint
        # (checkpoint_every=2) and replays batches 2-3
        plan = FaultPlan(crashes=(PartyCrash("server1", at_step=3),))
        resumed = train_mlp_under_plan(plan, batches=4)
        assert resumed.report.party_restarts == 1
        assert resumed.weights_equal(uninterrupted)
        assert resumed.losses == uninterrupted.losses
