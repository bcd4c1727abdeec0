"""The H2D engine's uploads against Fig. 5's order, end to end.

A product issues its uploads in Fig. 5's ``E -> A -> F -> B -> Z``
order and the clock backfills each into the first idle gap of the
engine that holds it, so no upload may start later than under the plain
in-order plan.  These checks hold the clock's real placements on a warm
step of each train workload to a Fig. 5 replay of the same inputs; the
clock's own guarantee is ``tests/test_clock.py``'s backfill property.
"""

import numpy as np
import pytest
from conftest import assert_no_upload_later_than_fig5

import repro

# --------------------------------------------------- warm steps, end to end


def _one_hot(rng, n, width):
    y = np.zeros((n, width))
    y[np.arange(n), rng.integers(0, width, size=n)] = 1.0
    return y


TRAIN_WORKLOADS = {  # perf/'s three train workloads: model, batch, features, classes
    "train_mlp": (lambda ctx: repro.SecureMLP(ctx, 784, hidden=(128, 128), n_out=10), 128, 784, 10),
    "train_cnn": (lambda ctx: repro.SecureCNN(ctx, (28, 28, 1)), 16, 784, 10),
    "train_attention": (lambda ctx: repro.SecureAttention(ctx, 4, 16), 32, 64, 3),
}


@pytest.mark.parametrize("workload", sorted(TRAIN_WORKLOADS))
def test_warm_train_step_uploads_no_later_than_fig5(workload, h2d_replay):
    build, batch, features, classes = TRAIN_WORKLOADS[workload]
    rng = np.random.default_rng(0)
    x = 0.5 * rng.standard_normal((2 * batch, features))
    y = _one_hot(rng, 2 * batch, classes)
    ctx = repro.SecureContext.create(repro.FrameworkConfig(seed=0, trace=True))
    trainer = repro.SecureTrainer(ctx, build(ctx), monitor_loss=False)
    trainer.train(x, y, batch_size=batch)  # deals every stream
    del h2d_replay[:]
    trainer.train(x[:batch], y[:batch], batch_size=batch)
    assert_no_upload_later_than_fig5(h2d_replay)
    earlier = sum(placed[n] < fig5[n] for placed, fig5 in h2d_replay for n in placed)
    if workload != "train_attention":  # its transfers hide behind the kernels either way
        assert earlier > 0
