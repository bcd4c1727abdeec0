"""The sharded secure-serving fleet: a router in front of replicas.

One :class:`~repro.serve.replica.Replica` is one secure deployment —
one server pair, one dealer, one pair of clocks.  The fleet scales that
horizontally: N replicas (each built from the same ``model_factory``
on its own :class:`~repro.core.context.SecureContext`, whose client
deals each op stream's triplet on first use) behind a
:class:`FleetRouter` front-end with pluggable placement
(:mod:`repro.serve.placement`).  The replica count changes only through
:meth:`SecureServingFleet.add_replica` / ``retire_replica``.

Delivery contract — *admitted exactly once*: every request the fleet
accepts is answered exactly once, crashes included.  A replica whose
batch exhausts its retry budget requeues the requests, and the router
recovers: completed responses are harvested, the admitted requests are
drained back (:meth:`Replica.take_pending`), the replica is respawned
through the :mod:`repro.faults` recovery path, and the drained
plaintexts are re-shared onto healthy replicas — re-routed requests
bypass admission (they were admitted once already), so backpressure can
reject but never drop.

Conformance: the fleet journals every operation it applies to each
replica (submits with payloads, pump/drain calls and their outcomes,
crash recoveries).  With ``audit=True`` each
replica records its wire transcript, and :meth:`verify_conformance`
replays each journal on a fresh standalone replica with the same
config — the replay must be bit-identical, transcript and predictions
both, proving sharding changed *where* requests ran but not *what* any
single deployment did.

Quickstart::

    import repro

    fleet = repro.api.serve(
        lambda ctx: repro.SecureMLP(ctx, 64, hidden=(32,), n_out=10),
        replicas=4, placement="hash", max_batch=64,
    )
    rid = fleet.submit("client-a", x_rows)
    fleet.drain()
    report = fleet.report()      # per-replica + fleet-aggregate accounting
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import FrameworkConfig
from repro.core.context import SecureContext
from repro.faults.blame import PartyFailure
from repro.serve.placement import make_placement
from repro.serve.replica import InferenceResponse, Replica, ServeReport
from repro.telemetry import Telemetry
from repro.telemetry.registry import SeriesCache
from repro.util.errors import QueueFullError, ServeError

_QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


@dataclass
class FleetTicket:
    """One admitted request's routing state (plaintext retained for reroute)."""

    fleet_rid: int
    client_id: str
    x: np.ndarray
    replica: str
    replica_rid: int
    resubmits: int = 0


@dataclass(frozen=True)
class FleetResponse:
    """One answered request: the replica's response plus fleet identity."""

    fleet_rid: int
    client_id: str
    replica: str
    response: InferenceResponse

    @property
    def predictions(self) -> np.ndarray:
        return self.response.predictions

    @property
    def rows(self) -> int:
        return self.response.rows

    @property
    def latency_s(self) -> float:
        return self.response.latency_s


@dataclass
class FleetReport:
    """Fleet-aggregate accounting plus every replica's own report."""

    replicas: dict[str, ServeReport] = field(default_factory=dict)
    responses: list[FleetResponse] = field(default_factory=list)
    served_requests: int = 0
    served_rows: int = 0
    pending_requests: int = 0
    dropped_requests: int = 0  # admitted - served - pending; the contract: 0
    batches: int = 0
    padded_rows: int = 0
    retried_batches: int = 0
    rejected_requests: int = 0
    rerouted_requests: int = 0
    replica_crashes: int = 0
    replicas_added: int = 0
    replicas_retired: int = 0
    offline_s: float = 0.0  # max over replicas (parallel deployments)
    online_s: float = 0.0  # max over replicas: the fleet makespan
    latency: dict = field(default_factory=dict)  # fleet-wide p50/p95/p99
    backends: dict = field(default_factory=dict)  # {replica: protocol backend}

    @property
    def rows_per_online_s(self) -> float:
        return self.served_rows / self.online_s if self.online_s else 0.0

    @property
    def mean_batch_fill(self) -> float:
        total = self.served_rows + self.padded_rows
        return self.served_rows / total if total else 0.0

    def response_for(self, client_id: str, fleet_rid: int) -> FleetResponse | None:
        for resp in self.responses:
            if resp.client_id == client_id and resp.fleet_rid == fleet_rid:
                return resp
        return None


class FleetRouter:
    """Placement + health filtering over the live replica set."""

    def __init__(self, placement="hash", *, telemetry: Telemetry | None = None):
        self.placement = make_placement(placement)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._replicas: dict[str, Replica] = {}
        routed = self.telemetry.counter("fleet.requests_routed", "requests placed, by replica")
        self._routed = SeriesCache(lambda replica: routed.labels(replica=replica))

    def add(self, replica: Replica) -> None:
        if replica.name in self._replicas:
            raise ServeError(f"duplicate replica name {replica.name!r}")
        self._replicas[replica.name] = replica
        self.placement.add_replica(replica.name)

    def remove(self, name: str) -> None:
        self._replicas.pop(name, None)
        self.placement.remove_replica(name)

    def replicas(self) -> list[Replica]:
        return list(self._replicas.values())

    def get(self, name: str) -> Replica | None:
        return self._replicas.get(name)

    def healthy(self) -> list[Replica]:
        """Live replicas a request may be placed on (never a crashed one)."""
        return [r for r in self._replicas.values() if r.crashed_party is None]

    def route(self, client_id: str, *, exclude: str | None = None) -> list[Replica]:
        """Preference-ordered healthy replicas for one request."""
        candidates = [r for r in self.healthy() if r.name != exclude]
        if not candidates:  # nothing else: a respawned excluded replica will do
            candidates = self.healthy()
        return self.placement.rank(client_id, candidates)

    def note_routed(self, replica_name: str) -> None:
        self._routed[replica_name].inc(1)


class SecureServingFleet:
    """N context replicas behind a router.

    Parameters
    ----------
    model_factory:
        ``(ctx) -> SecureModel`` — builds (and, for deployed weights,
        installs) the served model on one replica's context.  Called
        once per replica, and again per replica during conformance
        replay, so it must be deterministic given the context.
    replicas:
        Initial replica count (:meth:`add_replica` / :meth:`retire_replica`
        change it later).
    config:
        Base :class:`FrameworkConfig`; replica *i* runs ``config`` with
        ``seed + i`` so RNG streams are distinct across the fleet.
    replica_config:
        Optional ``(index, base_config) -> FrameworkConfig`` hook for
        per-replica overrides (chaos shaping, heterogeneous backends).
    placement:
        ``"hash"`` (consistent-hash session affinity), ``"least-depth"``,
        or a :class:`~repro.serve.placement.PlacementPolicy` instance.
    max_reroutes:
        Crash-recovery budget per request before the failure surfaces
        to the caller (the request stays queued, never dropped).
    audit:
        Record every replica's wire transcript; required by
        :meth:`verify_conformance`.
    """

    def __init__(
        self,
        model_factory,
        *,
        replicas: int = 2,
        config: FrameworkConfig | None = None,
        replica_config=None,
        placement="hash",
        max_batch: int = 64,
        max_wait_s: float = 1e-3,
        queue_rows: int | None = None,
        request_retries: int = 2,
        max_reroutes: int = 4,
        audit: bool = False,
    ):
        if replicas < 1:
            raise ServeError(f"fleet needs >= 1 replica, got {replicas}")
        self.model_factory = model_factory
        self.base_config = config if config is not None else FrameworkConfig()
        self.replica_config = replica_config
        self.audit = bool(audit)
        self.max_reroutes = int(max_reroutes)
        self._knobs = dict(
            max_batch=max_batch,
            max_wait_s=max_wait_s,
            queue_rows=queue_rows,
            request_retries=request_retries,
        )
        self.telemetry = Telemetry()
        self.router = FleetRouter(placement, telemetry=self.telemetry)
        self._replica_seq = itertools.count()
        self._fleet_rid = itertools.count(1)
        self._inflight: dict[tuple[str, int], FleetTicket] = {}
        self.responses: list[FleetResponse] = []
        self._journals: dict[str, list[tuple]] = {}
        self._configs: dict[str, FrameworkConfig] = {}
        self._retired: list[Replica] = []
        t = self.telemetry
        self._admitted = t.counter(
            "fleet.requests_admitted", "requests the fleet accepted"
        ).labels()
        self._rejected = t.counter(
            "fleet.requests_rejected", "submissions refused by every replica (retryable)"
        ).labels()
        self._rerouted = t.counter(
            "fleet.requests_rerouted", "requests re-shared onto another replica after a crash"
        )
        self._crashes = t.counter("fleet.replica_crashes", "replica failures recovered")
        self._added = t.counter("fleet.replicas_added", "replicas spawned")
        self._retired_counter = t.counter("fleet.replicas_retired", "replicas drained and retired")
        self._size_gauge = t.gauge("fleet.replicas", "live replica count")
        for _ in range(replicas):
            self.add_replica()

    # -- fleet membership -------------------------------------------------------

    def add_replica(self) -> Replica:
        """Spawn one replica (own context and model) and join the ring."""
        index = next(self._replica_seq)
        name = f"replica{index}"
        cfg = self.base_config.but(seed=self.base_config.seed + index)
        if self.replica_config is not None:
            cfg = self.replica_config(index, cfg)
        ctx = SecureContext.create(cfg)
        model = self.model_factory(ctx)
        replica = Replica(
            ctx,
            model,
            name=name,
            audit=self.audit,
            **self._knobs,
        )
        self.router.add(replica)
        self._journals[name] = []
        self._configs[name] = cfg
        self._added.inc(1)
        self._size_gauge.set(len(self.router.replicas()))
        return replica

    def retire_replica(self, name: str | None = None) -> str:
        """Drain one replica and remove it from the ring (never drops work)."""
        live = self.router.replicas()
        if len(live) <= 1:
            raise ServeError("cannot retire the last replica")
        if name is None:
            healthy = self.router.healthy() or live
            name = min(healthy, key=lambda r: (r.queued_rows, r.name)).name
        replica = self.router.get(name)
        if replica is None:
            raise ServeError(f"no live replica named {name!r}")
        # Remove from placement first so the drain cannot race new work
        # onto a replica that is leaving.
        self.router.remove(name)
        try:
            self._drain_replica(replica)
        finally:
            self._retired.append(replica)
            self._retired_counter.inc(1)
            self._size_gauge.set(len(self.router.replicas()))
        return name

    def replicas(self) -> list[Replica]:
        return self.router.replicas()

    @property
    def pending(self) -> int:
        """Admitted requests not yet answered."""
        return len(self._inflight)

    # -- client side ------------------------------------------------------------

    def submit(self, client_id: str, x: np.ndarray) -> int:
        """Route and admit one request; returns its fleet request id.

        Tries the placement order, failing over on queue-full
        backpressure; raises the retryable :class:`QueueFullError` only
        when *every* healthy replica refuses.
        """
        x = np.asarray(x, dtype=np.float64)
        order = self.router.route(client_id)
        if not order:
            raise ServeError("fleet has no healthy replicas")
        last_full: QueueFullError | None = None
        for replica in order:
            try:
                rid = replica.submit(client_id, x)
            except QueueFullError as exc:
                last_full = exc
                continue
            payload = np.array(x, copy=True)
            self._journals[replica.name].append(("submit", client_id, payload))
            fleet_rid = next(self._fleet_rid)
            self._inflight[(replica.name, rid)] = FleetTicket(
                fleet_rid=fleet_rid,
                client_id=client_id,
                x=payload,
                replica=replica.name,
                replica_rid=rid,
            )
            self._admitted.inc(1)
            self.router.note_routed(replica.name)
            return fleet_rid
        self._rejected.inc(1)
        assert last_full is not None
        raise last_full

    # -- serving ----------------------------------------------------------------

    def pump(self) -> int:
        """Serve every ready batch on every replica; returns batches run."""
        ran = 0
        for replica in list(self.router.replicas()):
            ran += self._pump_replica(replica)
        self._collect()
        return ran

    def drain(self) -> int:
        """Serve until every admitted request is answered; returns batches.

        Crash recoveries re-route work between rounds, so the loop runs
        until the in-flight set empties (or a request exhausts its
        reroute budget, which surfaces the :class:`PartyFailure`).
        """
        ran = self.pump()
        stalled = 0
        while self._inflight:
            before = len(self._inflight)
            for replica in list(self.router.replicas()):
                if len(replica.queue):
                    ran += self._drain_replica(replica)
            self._collect()
            if len(self._inflight) >= before:
                stalled += 1
                if stalled > self.max_reroutes:  # pragma: no cover - defensive
                    raise ServeError(
                        f"fleet drain stalled with {len(self._inflight)} requests in flight"
                    )
            else:
                stalled = 0
        return ran

    # -- accounting -------------------------------------------------------------

    def report(self) -> FleetReport:
        """Per-replica reports plus the fleet aggregate."""
        self._collect()
        live = [*self.router.replicas(), *self._retired]
        reports = {r.name: r.report() for r in live}
        backends = {r.name: r.ctx.backend.name for r in live}
        latencies = [resp.latency_s for resp in self.responses]
        latency = {
            name: (float(np.quantile(latencies, q)) if latencies else 0.0)
            for name, q in _QUANTILES
        }
        admitted = int(self._admitted.value())
        served = len(self.responses)
        return FleetReport(
            replicas=reports,
            responses=list(self.responses),
            served_requests=served,
            served_rows=sum(r.rows for r in self.responses),
            pending_requests=len(self._inflight),
            dropped_requests=admitted - served - len(self._inflight),
            batches=sum(r.batches for r in reports.values()),
            padded_rows=sum(r.padded_rows for r in reports.values()),
            retried_batches=sum(r.retried_batches for r in reports.values()),
            rejected_requests=int(self._rejected.value()),
            rerouted_requests=int(self._rerouted.value()),
            replica_crashes=int(self._crashes.value()),
            replicas_added=int(self._added.value()),
            replicas_retired=int(self._retired_counter.value()),
            offline_s=max((r.offline_s for r in reports.values()), default=0.0),
            online_s=max((r.online_s for r in reports.values()), default=0.0),
            latency=latency,
            backends=backends,
        )

    # -- conformance ------------------------------------------------------------

    def journal(self, replica_name: str) -> list[tuple]:
        """The operation journal replayed by :func:`replay_replica_journal`."""
        return list(self._journals[replica_name])

    def verify_conformance(self) -> dict[str, str | None]:
        """Replay every replica's journal standalone; diff the transcripts.

        Returns ``{replica_name: None}`` on bit-identity, or a
        human-readable divergence description per failing replica.
        Requires the fleet to have been built with ``audit=True``.
        """
        results: dict[str, str | None] = {}
        for replica in [*self.router.replicas(), *self._retired]:
            if replica.recorder is None:
                raise ServeError(
                    "conformance replay needs transcripts; build the fleet with audit=True"
                )
            replay = replay_replica_journal(
                self._journals[replica.name],
                self._configs[replica.name],
                self.model_factory,
                name=replica.name,
                **self._knobs,
            )
            results[replica.name] = _diff_replica(replica, replay)
        return results

    # -- internals --------------------------------------------------------------

    def _pump_replica(self, replica: Replica) -> int:
        try:
            ran = replica.pump()
        except PartyFailure as failure:
            self._journals[replica.name].append(("pump", True))
            self._recover(replica, failure)
            return 0
        self._journals[replica.name].append(("pump", False))
        return ran

    def _drain_replica(self, replica: Replica) -> int:
        try:
            ran = replica.drain()
        except PartyFailure as failure:
            self._journals[replica.name].append(("drain", True))
            self._recover(replica, failure)
            return 0
        self._journals[replica.name].append(("drain", False))
        return ran

    def _collect(self) -> None:
        for replica in [*self.router.replicas(), *self._retired]:
            self._collect_replica(replica)

    def _collect_replica(self, replica: Replica) -> None:
        for resp in replica.poll():
            ticket = self._inflight.pop((replica.name, resp.request_id), None)
            if ticket is None:  # pragma: no cover - exactly-once guard
                raise ServeError(
                    f"{replica.name} answered unknown request {resp.request_id}"
                )
            self.responses.append(
                FleetResponse(
                    fleet_rid=ticket.fleet_rid,
                    client_id=ticket.client_id,
                    replica=replica.name,
                    response=resp,
                )
            )

    def _recover(self, replica: Replica, failure: PartyFailure) -> None:
        """Crash path: harvest, drain back, respawn, re-route — drop nothing."""
        self._crashes.inc(1, replica=replica.name, party=failure.party)
        # 1. completed batches before the failure still count
        self._collect_replica(replica)
        # 2. admitted requests drain back through the router
        pending = replica.take_pending()
        self._journals[replica.name].append(("take_pending",))
        # 3. respawn the blamed party via the faults recovery path
        replica.respawn()
        self._journals[replica.name].append(("respawn",))
        # 4. re-share the drained plaintexts onto healthy replicas
        over_budget = None
        for request in pending:
            ticket = self._inflight.pop((replica.name, request.request_id), None)
            if ticket is None:  # pragma: no cover - exactly-once guard
                raise ServeError(
                    f"{replica.name} drained unknown request {request.request_id}"
                )
            if ticket.resubmits >= self.max_reroutes:
                # budget exhausted: keep the request admitted on the
                # respawned replica and surface the failure — queued,
                # never dropped, exactly like the standalone server.
                self._force_ticket(replica, ticket)
                over_budget = failure
                continue
            self._resubmit(ticket, exclude=replica.name)
        if over_budget is not None:
            raise over_budget

    def _resubmit(self, ticket: FleetTicket, *, exclude: str) -> None:
        order = self.router.route(ticket.client_id, exclude=exclude)
        if not order:
            raise ServeError("fleet has no healthy replicas to re-route onto")
        target = None
        rid = None
        for replica in order:
            try:
                rid = replica.submit(ticket.client_id, ticket.x)
            except QueueFullError:
                continue
            target = replica
            self._journals[replica.name].append(("submit", ticket.client_id, ticket.x))
            break
        if target is None:
            # every healthy replica is full: force-admit — re-routed
            # work was admitted once and never drops — but keep the row
            # bounds in the decision: oversubscribe the queue with the
            # most remaining headroom, not the depth-blind affinity
            # pick (ties break by preference order).
            target = max(
                order, key=lambda r: r.queue.max_rows - r.queue.depth_rows
            )
            rid = target.force_admit(ticket.client_id, ticket.x)
            self._journals[target.name].append(("force", ticket.client_id, ticket.x))
        ticket.replica = target.name
        ticket.replica_rid = rid
        ticket.resubmits += 1
        self._inflight[(target.name, rid)] = ticket
        self._rerouted.inc(1, to=target.name)
        self.router.note_routed(target.name)

    def _force_ticket(self, replica: Replica, ticket: FleetTicket) -> None:
        rid = replica.force_admit(ticket.client_id, ticket.x)
        self._journals[replica.name].append(("force", ticket.client_id, ticket.x))
        ticket.replica = replica.name
        ticket.replica_rid = rid
        self._inflight[(replica.name, rid)] = ticket


def replay_replica_journal(
    journal: list[tuple],
    config: FrameworkConfig,
    model_factory,
    *,
    name: str = "replay",
    max_batch: int = 64,
    max_wait_s: float = 1e-3,
    queue_rows: int | None = None,
    request_retries: int = 2,
) -> Replica:
    """Re-run one replica's journal on a fresh standalone deployment.

    The replay records its own transcript (``audit`` is always on), so
    callers can diff it bit-for-bit against the fleet replica's — the
    conformance oracle for the sharding layer.  Raises
    :class:`ServeError` if an op's outcome diverges (a pump/drain that
    failed in the fleet must fail identically in the replay).
    """
    ctx = SecureContext.create(config)
    model = model_factory(ctx)
    replica = Replica(
        ctx,
        model,
        name=name,
        max_batch=max_batch,
        max_wait_s=max_wait_s,
        queue_rows=queue_rows,
        request_retries=request_retries,
        audit=True,
    )
    for entry in journal:
        op = entry[0]
        if op == "submit":
            replica.submit(entry[1], entry[2])
        elif op == "force":
            replica.force_admit(entry[1], entry[2])
        elif op in ("pump", "drain"):
            raised = False
            try:
                getattr(replica, op)()
            except PartyFailure:
                raised = True
            if raised != entry[1]:
                raise ServeError(
                    f"replay diverged: {op} {'failed' if raised else 'succeeded'} "
                    f"but the fleet run {'failed' if entry[1] else 'succeeded'}"
                )
        elif op == "take_pending":
            replica.take_pending()
        elif op == "respawn":
            replica.respawn()
        else:  # pragma: no cover - journal is fleet-written
            raise ServeError(f"unknown journal op {op!r}")
    return replica


def _diff_replica(original: Replica, replay: Replica) -> str | None:
    """Bit-compare a fleet replica against its standalone replay."""
    divergence = original.recorder.transcript().diff(replay.recorder.transcript())
    if divergence is not None:
        return f"transcript divergence: {divergence.describe()}"
    mine = original.report().responses
    theirs = replay.report().responses
    if len(mine) != len(theirs):
        return f"response count {len(mine)} != replay {len(theirs)}"
    for a, b in zip(mine, theirs):
        if (a.client_id, a.request_id) != (b.client_id, b.request_id):
            return (
                f"response order diverged: ({a.client_id},{a.request_id}) "
                f"!= ({b.client_id},{b.request_id})"
            )
        if not np.array_equal(a.predictions, b.predictions):
            return f"predictions diverged for ({a.client_id},{a.request_id})"
    return None
