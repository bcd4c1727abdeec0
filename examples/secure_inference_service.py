"""Secure inference service: many clients, one secure deployment.

The deployment the paper's Fig. 13 targets: a model owner trains in the
clear on their own hardware, then serves predictions on untrusted cloud
servers — the model weights and every query stay secret-shared.  This
example runs the full service stack (:mod:`repro.serve`):

1. trains a plain face-recognition-style MLP locally (VGGFace2-like
   images, downscaled for the demo);
2. installs its weights into the secure stack as shares;
3. serves *concurrent ragged requests* from several logical clients —
   tiny one-row queries included — through the bounded queue and the
   adaptive batcher, retrying on queue-full backpressure;
4. validates that **zero requests were lost** and every answer matches
   the plain model, then reports p50/p95/p99 request latency.

With ``--chaos-seed`` a fault plan (packet drops + a mid-serve party
crash) runs underneath; the service must still lose nothing and return
bit-identical predictions — the crash only shows up in the tail latency.

With ``--replicas N`` the same request stream runs through the sharded
serving fleet (:mod:`repro.serve.fleet`) instead of one server: N
replica deployments behind the router, a shared dealer, and — under
chaos — replica crashes recovered by re-routing the admitted requests
onto healthy replicas.  Zero requests lost, same agreement bar.

Run:  python examples/secure_inference_service.py --clients 6 --chaos-seed 7
      python examples/secure_inference_service.py --replicas 2 --chaos-seed 7
"""

import argparse
import sys

import numpy as np

from repro.baselines.plain import PlainTimer, PlainTrainer
from repro.core import FrameworkConfig, SecureContext, SecureMLP
from repro.core.models import build_plain
from repro.datasets import vggface2_like
from repro.faults import FaultPlan, PartyCrash
from repro.serve import QueueFullError, Replica, SecureServingFleet

IMAGE = (40, 40, 1)  # demo-scale stand-in for the paper's 200x200 faces
FEATURES = 40 * 40
N_CLASSES = 10
MAX_BATCH = 64


def train_plain():
    """Train the face-recognition-style MLP in the clear."""
    x_train, y_train = vggface2_like(512, seed=1, image_shape=IMAGE)
    plain = build_plain("MLP", FEATURES, hidden=(64, 32), n_out=N_CLASSES, seed=3)
    PlainTrainer(plain, PlainTimer("cpu"), lr=0.05).train(
        x_train, y_train, epochs=3, batch_size=MAX_BATCH
    )
    return plain


def deploy_model(ctx, plain):
    """Install the plain weights into a secure model as shares."""
    service = SecureMLP(ctx, FEATURES, hidden=(64, 32), n_out=N_CLASSES)
    dense_secure = [la for la in service.layers if hasattr(la, "weight")]
    dense_plain = [la for la in plain.layers if hasattr(la, "w")]
    for ls, lp in zip(dense_secure, dense_plain):
        wp = ctx.share_plain(lp.w, label=f"deploy/{ls.name}/W")
        bp = ctx.share_plain(lp.b, label=f"deploy/{ls.name}/b")
        ls.weight.shares = (wp.share0, wp.share1)
        ls.bias.shares = (bp.share0, bp.share1)
    return service


def chaos_plan(chaos_seed: int):
    return FaultPlan(
        seed=chaos_seed,
        drop=0.02,
        crashes=(PartyCrash("server1", at_step=3),),
    )


def build_service(chaos_seed: int | None):
    """Train in the clear, deploy the weights as shares, wrap in a server."""
    plain = train_plain()
    overrides = {}
    if chaos_seed is not None:
        overrides["fault_plan"] = chaos_plan(chaos_seed)
    ctx = SecureContext(FrameworkConfig.parsecureml(**overrides))
    service = deploy_model(ctx, plain)
    server = Replica(ctx, service, max_batch=MAX_BATCH, queue_rows=4 * MAX_BATCH)
    return ctx, plain, server


def build_fleet(chaos_seed: int | None, replicas: int):
    """Train once, deploy the same weights onto every fleet replica.

    Under chaos only replica 0 runs the fault plan, and the fleet's
    per-batch retry budget is zero — so the crash escalates to the
    router, which must drain the admitted requests back and re-route
    them onto the healthy replicas.
    """
    plain = train_plain()
    replica_config = None
    request_retries = 2
    if chaos_seed is not None:
        plan = chaos_plan(chaos_seed)
        request_retries = 0

        def replica_config(index, cfg):
            return cfg.but(fault_plan=plan) if index == 0 else cfg

    fleet = SecureServingFleet(
        lambda ctx: deploy_model(ctx, plain),
        replicas=replicas,
        config=FrameworkConfig.parsecureml(),
        replica_config=replica_config,
        max_batch=MAX_BATCH,
        queue_rows=4 * MAX_BATCH,
        request_retries=request_retries,
    )
    return plain, fleet


def submit_all(server, queries):
    """Submit every client wave, backing off through QueueFullError."""
    pending = list(queries)
    submitted = {}
    rejections = 0
    while pending:
        client, x = pending.pop(0)
        try:
            rid = server.submit(client, x)
        except QueueFullError:
            rejections += 1
            server.drain()  # serve what is queued, then resubmit — never drop
            pending.insert(0, (client, x))
            continue
        submitted[rid] = (client, x)
        server.pump()  # serve full batches as they form
    return submitted, rejections


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--clients", type=int, default=6,
                        help="concurrent logical clients (default 6)")
    parser.add_argument("--requests", type=int, default=4,
                        help="request waves per client (default 4)")
    parser.add_argument("--chaos-seed", type=int, default=None,
                        help="run under a fault plan (drops + a party crash)")
    parser.add_argument("--replicas", type=int, default=1,
                        help="serve through a fleet of N replicas (default 1 "
                        "= the single-server path)")
    args = parser.parse_args(argv)

    if args.replicas > 1:
        plain, fleet = build_fleet(args.chaos_seed, args.replicas)
        ctx, server = None, fleet
    else:
        ctx, plain, server = build_service(args.chaos_seed)

    # Interleaved client waves with ragged sizes, tiny requests included.
    rng = np.random.default_rng(4)
    sizes = [1, 3, 7, 17, 29, MAX_BATCH]
    queries = []
    for wave in range(args.requests):
        for c in range(args.clients):
            rows = sizes[(wave * args.clients + c) % len(sizes)]
            x, _ = vggface2_like(rows, seed=100 + wave * args.clients + c,
                                 image_shape=IMAGE)
            queries.append((f"client{c}", x))
    rng.shuffle(queries)

    submitted, rejections = submit_all(server, queries)
    server.drain()
    rep = server.report()

    # -- acceptance: nothing lost, every answer right -------------------------
    lost = [
        rid for rid, (client, _x) in submitted.items()
        if rep.response_for(client, rid) is None
    ]
    if lost or rep.served_requests != len(submitted):
        print(f"FAILED: {len(lost)} of {len(submitted)} requests lost "
              f"(served {rep.served_requests})", file=sys.stderr)
        return 1
    timer = PlainTimer("cpu")
    tie_flips = 0
    max_err = 0.0
    for resp in rep.responses:
        rid = resp.fleet_rid if args.replicas > 1 else resp.request_id
        _, x = submitted[rid]
        ref = plain.forward(x, timer, training=False)
        err = float(np.abs(resp.predictions - ref).max())
        max_err = max(max_err, err)
        flipped = resp.predictions.argmax(axis=1) != ref.argmax(axis=1)
        if flipped.any():
            # a class flip is only acceptable on a near-tie: the plain
            # top-2 logit margin must be within fixed-point noise
            srt = np.sort(ref[flipped], axis=1)
            margins = srt[:, -1] - srt[:, -2]
            if (margins > 1e-2).any():
                print(f"FAILED: predictions disagree with the plain model "
                      f"beyond fixed-point noise (margin {margins.max():.3f})",
                      file=sys.stderr)
                return 1
            tie_flips += int(flipped.sum())
    total_rows = sum(r.rows for r in rep.responses)

    # -- service report -------------------------------------------------------
    chaos = f" under chaos seed {args.chaos_seed}" if args.chaos_seed is not None else ""
    agreement = 1.0 - tie_flips / max(total_rows, 1)
    print(f"served {rep.served_requests} requests / {total_rows} rows from "
          f"{args.clients} clients{chaos}: zero lost, {agreement:.1%} agreement "
          f"(max logit deviation {max_err:.2e}, {tie_flips} near-tie flips)")
    print(f"batching: {rep.batches} secure batches, fill {rep.mean_batch_fill:.0%} "
          f"({rep.padded_rows} pad rows), {rejections} backpressure rejects"
          + ("" if args.replicas > 1 else f", {rep.timer_waits} timer flushes"))
    print(f"latency (simulated online): p50 {rep.latency['p50'] * 1e3:.3f} ms   "
          f"p95 {rep.latency['p95'] * 1e3:.3f} ms   "
          f"p99 {rep.latency['p99'] * 1e3:.3f} ms")
    if args.replicas > 1:
        if rep.dropped_requests:
            print(f"FAILED: fleet dropped {rep.dropped_requests} requests",
                  file=sys.stderr)
            return 1
        print(f"fleet: {args.replicas} replicas, {rep.replica_crashes} "
              f"crash(es) recovered, {rep.rerouted_requests} requests "
              f"re-routed, {rep.dropped_requests} dropped")
        for name, r in sorted(rep.replicas.items()):
            print(f"  {name}: {r.served_requests} requests / {r.served_rows} rows "
                  f"in {r.batches} batches, online {r.online_s * 1e3:.3f} ms")
        return 0
    if rep.retried_batches:
        print(f"faults: {rep.retried_batches} batch(es) retried after a party "
              f"crash, {rep.retry_online_s * 1e3:.3f} ms burned in recovery "
              f"— visible in p99, invisible in the answers")
    stats = ctx.compression_stats
    print(f"inter-server traffic: {stats.wire_bytes / 1e6:.2f} MB on the wire "
          f"for {stats.raw_bytes / 1e6:.2f} MB raw "
          f"({stats.savings_fraction:.1%} saved by delta compression — "
          f"weight streams are constant at inference time)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
