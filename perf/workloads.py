"""The six workloads of the two-clock benchmark.

Each workload is a closed loop in one process and one thread: the next
unit starts when the previous one returned.  Every configuration is
``FrameworkConfig(backend=<named>, seed=<seed>)`` and nothing else, so a
change of a default is measured and a knob nobody sets is not.  Inputs
come from ``numpy.random.default_rng(seed)`` in this file — not from
``repro.bench`` or ``repro.datasets`` — so a refactor of those cannot
move the inputs.  The timed path uses only names exported from the
top-level ``repro`` package; the plain float64 twins of the correctness
check come from ``repro.baselines.plain``.

Shapes never depend on the seed, so the simulated and counted metrics
are the same on every seed wherever the modelled cost is shape-driven;
the seed moves values (inputs, weights, masks) only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import repro
from repro.audit.conformance import FORWARD_TOL, TRAIN_TOL, sync_plain_weights
from repro.baselines.plain import PlainAttention, PlainCNN, PlainMLP, PlainTimer, PlainTrainer


@dataclass
class UnitResult:
    """What one timed unit did, on the simulated clocks and the wire."""

    online_s: float
    offline_s: float
    wire_bytes: int
    wire_messages: int
    latencies_s: list[float]  # one per completed operation
    attempted: int  # operations: batches, requests or deployments
    failed: int
    contexts: list = field(default_factory=list)  # SecureContexts the unit ran on


def _one_hot(rng: np.random.Generator, n: int, width: int) -> np.ndarray:
    y = np.zeros((n, width))
    y[np.arange(n), rng.integers(0, width, size=n)] = 1.0
    return y


def _link_messages(ctx) -> int:
    return sum(link.total_messages for link in ctx.server_links.values())


def _bad_rows(predictions: np.ndarray) -> bool:
    return not bool(np.all(np.isfinite(predictions)))


def _mlp(ctx):
    return repro.SecureMLP(ctx, 784, hidden=(128, 128), n_out=10)


def _plain_mlp(seed: int):
    return PlainMLP(784, hidden=(128, 128), n_out=10, seed=seed)


class Workload:
    """Inputs at construction, state at :meth:`setup`, work in :meth:`unit`."""

    name = ""
    why = ""
    rows = 0  # input rows one unit processes
    backend = "beaver2pc"

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self._recorders: list = []

    def config(self):
        return repro.FrameworkConfig(backend=self.backend, seed=self.seed)

    def setup(self) -> None:
        """Build contexts and models, then run one warm-up unit."""
        raise NotImplementedError

    def unit(self) -> UnitResult:
        raise NotImplementedError

    def check(self) -> tuple[float, float]:
        """(max |secure - plain|, tolerance) on a fresh context."""
        raise NotImplementedError

    def contexts(self) -> list:
        """The live contexts the next unit will run on."""
        return []

    def finish(self) -> int:
        """Failures only visible after the run (dropped or rejected work)."""
        return 0

    def serve_report(self):
        """The serving layer's cumulative report (None off the serve path)."""
        return None

    def serve_responses(self) -> list:
        return []

    def start_audit(self) -> None:
        """Attach a transcript recorder to every context from here on."""
        self._recorders = [ctx.attach_recorder() for ctx in self.contexts()]

    def audit_records(self) -> int:
        return sum(len(recorder) for recorder in self._recorders)


class _Train(Workload):
    """``SecureTrainer.train`` over the same shared dataset, one epoch a unit."""

    model_name = ""
    batch = 0
    batches = 0
    n_features = 0
    n_out = 0

    def __init__(self, seed: int):
        super().__init__(seed)
        n = self.batch * self.batches
        self.x = 0.5 * self.rng.standard_normal((n, self.n_features))
        self.y = _one_hot(self.rng, n, self.n_out)
        self.rows = n

    def build(self, ctx):
        raise NotImplementedError

    def build_plain(self):
        raise NotImplementedError

    def setup(self) -> None:
        self.ctx = repro.SecureContext.create(self.config())
        self.model = self.build(self.ctx)
        self.trainer = repro.SecureTrainer(self.ctx, self.model)
        self.unit()

    def contexts(self) -> list:
        return [self.ctx]

    def unit(self) -> UnitResult:
        messages = _link_messages(self.ctx)
        report = self.trainer.train(self.x, self.y, batch_size=self.batch)
        return UnitResult(
            online_s=report.online_s,
            offline_s=report.offline_s,
            wire_bytes=report.server_bytes,
            wire_messages=_link_messages(self.ctx) - messages,
            latencies_s=list(report.batch_online_s),
            attempted=report.batches,
            failed=sum(not math.isfinite(loss) for loss in report.losses),
            contexts=[self.ctx],
        )

    def check(self) -> tuple[float, float]:
        ctx = repro.SecureContext.create(self.config())
        secure, plain = self.build(ctx), self.build_plain()
        sync_plain_weights(self.model_name, secure, plain)
        n = 2 * self.batch
        repro.SecureTrainer(ctx, secure).train(self.x[:n], self.y[:n], batch_size=self.batch)
        PlainTrainer(plain, PlainTimer("cpu")).train(self.x[:n], self.y[:n], batch_size=self.batch)
        probe = self.x[: self.batch]
        got = repro.secure_predict(ctx, secure, probe, batch_size=self.batch).predictions
        want = plain.forward(probe, PlainTimer("cpu"), training=False)
        return float(np.max(np.abs(got - want))), TRAIN_TOL


class TrainMLP(_Train):
    name = "train_mlp"
    why = (
        "GEMM-bound: ring matmul is the largest host share, comparison second; "
        "a ring-kernel change (limb caching, 3-limb products) must show here"
    )
    model_name, batch, batches, n_features, n_out = "MLP", 128, 4, 784, 10

    def build(self, ctx):
        return _mlp(ctx)

    def build_plain(self):
        return _plain_mlp(self.seed)


class TrainCNN(_Train):
    name = "train_cnn"
    why = (
        "tall-skinny im2col GEMMs where limb split/convert, not dgemm, dominates, and 73k-element "
        "activations that make comparison the largest share; guards what train_mlp does not"
    )
    model_name, batch, batches, n_features, n_out = "CNN", 16, 2, 28 * 28, 10

    def build(self, ctx):
        return repro.SecureCNN(ctx, (28, 28, 1))

    def build_plain(self):
        return PlainCNN((28, 28, 1), seed=self.seed)


class TrainAttention(_Train):
    name = "train_attention"
    why = (
        "dispatch-bound: hundreds of tiny ops a batch, so telemetry/simgpu/protocols/comm "
        "bookkeeping outweighs ring GEMM; kernel work predicts no change here"
    )
    model_name, batch, batches, n_features, n_out = "attention", 32, 16, 4 * 16, 3

    def build(self, ctx):
        return repro.SecureAttention(ctx, 4, 16)

    def build_plain(self):
        return PlainAttention(4, 16, seed=self.seed)


class InferMLPRep3(Workload):
    name = "infer_mlp_rep3"
    why = (
        "the protocols layer used differently: dealer-free 3-party resharing, forward only; "
        "guards the second backend when a change is written against beaver2pc"
    )
    backend = "rep3"
    batch = 128
    rows = 6 * 128

    def __init__(self, seed: int):
        super().__init__(seed)
        self.x = 0.5 * self.rng.standard_normal((self.rows, 784))

    def setup(self) -> None:
        self.ctx = repro.SecureContext.create(self.config())
        self.model = _mlp(self.ctx)
        self.unit()

    def contexts(self) -> list:
        return [self.ctx]

    def unit(self) -> UnitResult:
        messages = _link_messages(self.ctx)
        report = repro.secure_predict(self.ctx, self.model, self.x, batch_size=self.batch)
        pred = report.predictions
        failed = sum(
            _bad_rows(pred[lo : lo + self.batch]) for lo in range(0, self.rows, self.batch)
        )
        return UnitResult(
            online_s=report.online_s,
            offline_s=report.offline_s,
            wire_bytes=report.server_bytes,
            wire_messages=_link_messages(self.ctx) - messages,
            latencies_s=list(report.batch_online_s),
            attempted=report.batches,
            failed=failed + (self.rows - pred.shape[0]) // self.batch,
            contexts=[self.ctx],
        )

    def check(self) -> tuple[float, float]:
        return _forward_error(self.config(), self.x[: self.batch], self.seed), FORWARD_TOL


def _forward_error(config, x: np.ndarray, seed: int) -> float:
    """One secure forward pass of the MLP against its synced plain twin."""
    ctx = repro.SecureContext.create(config)
    secure, plain = _mlp(ctx), _plain_mlp(seed)
    sync_plain_weights("MLP", secure, plain)
    got = repro.secure_predict(ctx, secure, x, batch_size=x.shape[0]).predictions
    want = plain.forward(x, PlainTimer("cpu"), training=False)
    return float(np.max(np.abs(got - want)))


class ColdStart(Workload):
    name = "cold_start"
    why = (
        "offline-bound: five fresh deployments a unit, so triplet dealing, comparison bundles, "
        "dataset sharing and context construction are paid every time, not in setup_s"
    )
    deployments = 5
    batch = 128
    rows = 5 * 128

    def __init__(self, seed: int):
        super().__init__(seed)
        self.x = 0.5 * self.rng.standard_normal((self.deployments, self.batch, 784))
        self._audit = False

    def setup(self) -> None:
        self.unit()

    def unit(self) -> UnitResult:
        result = UnitResult(0.0, 0.0, 0, 0, [], self.deployments, 0)
        for x in self.x:
            ctx = repro.SecureContext.create(self.config())
            if self._audit:
                self._recorders.append(ctx.attach_recorder())
            model = _mlp(ctx)
            report = repro.secure_predict(ctx, model, x, batch_size=self.batch)
            result.online_s += report.online_s
            result.offline_s += report.offline_s
            result.wire_bytes += report.server_bytes
            result.wire_messages += _link_messages(ctx)
            result.latencies_s.append(report.offline_s + report.online_s)
            result.failed += _bad_rows(report.predictions) or report.samples != self.batch
            result.contexts.append(ctx)
        return result

    def check(self) -> tuple[float, float]:
        return _forward_error(self.config(), self.x[0], self.seed), FORWARD_TOL

    def start_audit(self) -> None:
        self._audit = True


class ServeFleet(Workload):
    name = "serve_fleet"
    why = (
        "the only workload with queueing: 2+ batches per replica per wave, so sim p50 != p95; "
        "serve-layer changes move sim_latency_* here, wall_s guards per-request sharing cost"
    )
    replicas = 2
    max_batch = 32
    waves = 3
    clients = 64

    def __init__(self, seed: int):
        super().__init__(seed)
        # Client c always sends 1 + c % 4 rows: the request mix (and with
        # it every batch boundary) is fixed, only the values are seeded.
        sizes = [1 + c % 4 for c in range(self.clients)]
        self.requests = [
            [0.5 * self.rng.standard_normal((rows, 784)) for rows in sizes]
            for _wave in range(self.waves)
        ]
        self.rows = self.waves * sum(sizes)

    def _fleet(self):
        return repro.SecureServingFleet(
            _mlp,
            replicas=self.replicas,
            config=self.config(),
            placement="least-depth",
            max_batch=self.max_batch,
        )

    def setup(self) -> None:
        self.fleet = self._fleet()
        self.unit()

    def contexts(self) -> list:
        return [replica.ctx for replica in self.fleet.replicas()]

    def unit(self) -> UnitResult:
        fleet, ctxs = self.fleet, self.contexts()
        marks = [ctx.mark() for ctx in ctxs]
        messages = sum(_link_messages(ctx) for ctx in ctxs)
        answered = len(fleet.responses)
        attempted = failed = 0
        for wave in self.requests:
            for client, x in enumerate(wave):
                attempted += 1
                try:
                    fleet.submit(f"client{client}", x)
                except repro.QueueFullError:
                    failed += 1
            fleet.drain()
        responses = fleet.responses[answered:]
        failed += sum(_bad_rows(resp.predictions) for resp in responses)
        failed += fleet.pending  # admitted, never answered
        deltas = [ctx.since(mark) for ctx, mark in zip(ctxs, marks)]
        return UnitResult(
            # replicas are parallel deployments: the fleet's makespan is the slowest one's
            online_s=max(d.online_s for d in deltas),
            offline_s=max(d.offline_s for d in deltas),
            wire_bytes=sum(d.server_bytes for d in deltas),
            wire_messages=sum(_link_messages(ctx) for ctx in ctxs) - messages,
            latencies_s=[resp.latency_s for resp in responses],
            attempted=attempted,
            failed=failed,
            contexts=ctxs,
        )

    def check(self) -> tuple[float, float]:
        """One wave through a fresh fleet; each response is held to the
        plain twin synced to the replica that served it."""
        fleet = self._fleet()
        twins = {}
        for replica in fleet.replicas():
            twins[replica.name] = _plain_mlp(self.seed)
            sync_plain_weights("MLP", replica.model, twins[replica.name])
        sent = {fleet.submit(f"client{c}", x): x for c, x in enumerate(self.requests[0])}
        fleet.drain()
        worst = 0.0
        for resp in fleet.responses:
            want = twins[resp.replica].forward(
                sent.pop(resp.fleet_rid), PlainTimer("cpu"), training=False
            )
            worst = max(worst, float(np.max(np.abs(resp.predictions - want))))
        if sent:  # a request without a response fails the check outright
            worst = math.inf
        return worst, FORWARD_TOL

    def finish(self) -> int:
        # rejections were counted per unit; a dropped request shows only here
        return self.fleet.report().dropped_requests

    def serve_report(self):
        return self.fleet.report()

    def serve_responses(self) -> list:
        return self.fleet.responses


WORKLOADS = {
    cls.name: cls
    for cls in (TrainMLP, TrainCNN, TrainAttention, InferMLPRep3, ColdStart, ServeFleet)
}
