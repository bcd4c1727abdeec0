"""Fault tolerance: adversarial networks, recovery, and chaos equivalence.

Walks the `repro.faults` subsystem end to end:

1. train a small secure MLP on a *fault-free* deployment (the reference);
2. re-run the identical workload under a seeded :class:`repro.FaultPlan`
   that drops traffic and crashes a server mid-training — the trainer
   checkpoints shares every K batches, restarts the blamed party and
   replays from the checkpoint;
3. verify the chaos-equivalence property: the recovered run's final
   weights are **bit-identical** to the fault-free run, while its
   makespan and ``faults.*`` telemetry show what the recovery cost;
4. demonstrate an unrecoverable plan: blame lands on the party that
   stopped responding, via :class:`repro.PartyFailure`.

Run:  python examples/fault_tolerance.py
"""

import numpy as np

import repro


def build_and_train(fault_plan=None):
    """One deterministic training run; everything but the plan held fixed."""
    ctx = repro.api.session(fault_plan=fault_plan)
    model = repro.SecureMLP(ctx, 16, hidden=(8,), n_out=3)
    rng = np.random.default_rng(42)
    x = rng.normal(size=(64, 16)) * 0.25
    y = rng.normal(size=(64, 3)) * 0.25
    trainer = repro.SecureTrainer(
        ctx, model, lr=0.0625, checkpoint_every=2, max_restarts=2
    )
    report = trainer.train(x, y, epochs=1, batch_size=16)
    weights = [(p.shares[0].copy(), p.shares[1].copy()) for p in model.parameters()]
    return ctx, report, weights


def main() -> None:
    # 1. The reference: no faults.
    _, clean_report, clean_weights = build_and_train()
    print(f"fault-free run: {clean_report.batches} batches, "
          f"online {clean_report.online_s * 1e3:.2f} ms")

    # 2. The same workload on a hostile network: 10% of inter-server
    #    messages vanish, and server1 dies at batch 4.  The plan is
    #    seeded, so this exact failure history replays bit-for-bit.
    plan = repro.FaultPlan(
        seed=7,
        drop=0.10,
        crashes=(repro.PartyCrash("server1", at_step=4),),
    )
    ctx, faulty_report, faulty_weights = build_and_train(plan)
    print(f"\nunder {plan.describe()}:")
    print(f"  online {faulty_report.online_s * 1e3:.2f} ms "
          f"({faulty_report.online_s / clean_report.online_s:.2f}x the clean run)")
    print(f"  party restarts      : {faulty_report.party_restarts}")
    print(f"  batches replayed    : {faulty_report.batches_replayed}")
    print(f"  checkpoints written : {faulty_report.checkpoints_written}")

    snap = ctx.telemetry.snapshot()
    for name in ("faults.injected", "faults.retransmits", "faults.retransmit_bytes",
                 "faults.timeouts", "faults.party_restarts"):
        print(f"  {name:<24}: {snap.counter(name):g}")

    # 3. Chaos equivalence: recovery changed the makespan and the
    #    counters above — and nothing else.
    identical = all(
        np.array_equal(a0, b0) and np.array_equal(a1, b1)
        for (a0, a1), (b0, b1) in zip(clean_weights, faulty_weights)
    )
    print(f"\nfinal weights bit-identical to fault-free run: {identical}")
    assert identical

    # 4. An unrecoverable network: every inter-server message is lost.
    #    The retry budget exhausts and blame names the silent party.
    try:
        build_and_train(repro.FaultPlan(drop=1.0))
    except repro.PartyFailure as failure:
        print(f"\nunrecoverable plan -> {failure.blame.render()}")


if __name__ == "__main__":
    main()
