"""Driver calls are release points: no work runs before it exists.

The clock backfills idle gaps, so a task can start before ``now()``.
Each driver call closes the gaps before the moment its work came into
being: ``secure_predict`` and ``SecureTrainer.train`` at their entry,
a served batch at its latest request's admission.
"""

import numpy as np

import repro
from repro.serve.replica import Replica


def _mlp(ctx):
    return repro.SecureMLP(ctx, 784, hidden=(128, 128), n_out=10)


def test_no_task_starts_before_its_batch_or_call_exists(monkeypatch):
    rng = np.random.default_rng(0)

    # a 2-replica fleet, batches of up to 32 rows, three waves of 64 clients
    early = placed = 0
    serve_plan = Replica._serve_plan

    def counted(replica, plan):
        nonlocal early, placed
        admitted = max(r.enqueue_t for r in plan.requests)
        trace = replica.ctx.online_clock.trace
        mark = len(trace)
        serve_plan(replica, plan)
        placed += len(trace) - mark
        early += sum(t.start < admitted for t in trace[mark:])

    monkeypatch.setattr(Replica, "_serve_plan", counted)
    fleet = repro.SecureServingFleet(
        _mlp,
        replicas=2,
        config=repro.FrameworkConfig(seed=0, trace=True),
        max_batch=32,
    )
    for _wave in range(3):
        for client in range(64):
            fleet.submit(f"client{client}", 0.5 * rng.standard_normal((1 + client % 4, 784)))
        fleet.drain()
    assert placed > 0
    assert early == 0, f"{early} of {placed} tasks started before their batch's requests"

    # a second rep3 secure_predict call: six batches of 128
    ctx = repro.SecureContext.create(repro.FrameworkConfig(backend="rep3", seed=0, trace=True))
    model, x = _mlp(ctx), 0.5 * rng.standard_normal((768, 784))
    repro.secure_predict(ctx, model, x, batch_size=128)
    entered, mark = ctx.online_clock.now(), len(ctx.online_clock.trace)
    repro.secure_predict(ctx, model, x, batch_size=128)
    call = ctx.online_clock.trace[mark:]
    early = sum(t.start < entered for t in call)
    assert early == 0, f"{early} of {len(call)} tasks started before the call was made"
