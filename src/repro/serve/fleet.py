"""The sharded secure-serving fleet: a router in front of replicas.

One :class:`~repro.serve.replica.Replica` is one secure deployment —
one server pair, one dealer, one pair of clocks.  The fleet scales that
horizontally: N replicas (each built from the same ``model_factory``
on its own :class:`~repro.core.context.SecureContext`, whose client
deals each op stream's triplet on first use) behind a
:class:`FleetRouter` that sends each request to the healthy replica with
the shallowest queue.  A replica keeps no per-client state (masks belong
to op streams and the queue is FIFO), so there is nothing for session
affinity to keep warm.  The replica count changes only through
:meth:`SecureServingFleet.add_replica` / ``retire_replica``.

Delivery contract — *admitted exactly once*: every request the fleet
accepts is answered exactly once, crashes included.  A replica whose
batch exhausts its retry budget requeues the requests, and the router
recovers: completed responses are harvested, the admitted requests are
drained back (:meth:`Replica.take_pending`), the replica is respawned
through the :mod:`repro.faults` recovery path, and the drained
plaintexts are re-shared onto healthy replicas — re-routed requests
bypass admission (they were admitted once already), so backpressure can
reject but never drop.  A :class:`FleetTicket` holds its request's
plaintext only while the request is in flight.

With ``audit=True`` each replica records its wire transcript
(:meth:`Replica.wire_audit`).  The tests replay every replica's calls on
a fresh standalone replica and hold transcript and predictions
bit-identical (``tests/oracles.py``): sharding changes *where* requests
run, never *what* a deployment does.

Quickstart::

    import repro

    fleet = repro.api.serve(
        lambda ctx: repro.SecureMLP(ctx, 64, hidden=(32,), n_out=10),
        replicas=4, max_batch=64,
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
from repro.serve.replica import InferenceResponse, Replica, ServeReport
from repro.telemetry import Telemetry
from repro.telemetry.registry import SeriesCache
from repro.util.errors import ConfigError, QueueFullError, ServeError

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
    def mean_batch_fill(self) -> float:
        total = self.served_rows + self.padded_rows
        return self.served_rows / total if total else 0.0

    def response_for(self, client_id: str, fleet_rid: int) -> FleetResponse | None:
        for resp in self.responses:
            if resp.client_id == client_id and resp.fleet_rid == fleet_rid:
                return resp
        return None


class FleetRouter:
    """Least-depth routing and health filtering over the live replica set."""

    def __init__(self, *, telemetry: Telemetry | None = None):
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._replicas: dict[str, Replica] = {}
        routed = self.telemetry.counter("fleet.requests_routed", "requests placed, by replica")
        self._routed = SeriesCache(lambda replica: routed.labels(replica=replica))

    def add(self, replica: Replica) -> None:
        if replica.name in self._replicas:
            raise ServeError(f"duplicate replica name {replica.name!r}")
        self._replicas[replica.name] = replica

    def remove(self, name: str) -> None:
        self._replicas.pop(name, None)

    def replicas(self) -> list[Replica]:
        return list(self._replicas.values())

    def get(self, name: str) -> Replica | None:
        return self._replicas.get(name)

    def healthy(self) -> list[Replica]:
        """Live replicas a request may be placed on (never a crashed one)."""
        return [r for r in self._replicas.values() if r.crashed_party is None]

    def route(self, *, exclude: str | None = None) -> list[Replica]:
        """Healthy replicas, shallowest queue first (ties by name).

        Every replica has the same row bound, so the first is also the
        one with the most headroom.
        """
        candidates = [r for r in self.healthy() if r.name != exclude]
        if not candidates:  # nothing else: a respawned excluded replica will do
            candidates = self.healthy()
        return sorted(candidates, key=lambda r: (r.queue.depth_rows, r.name))

    def note_routed(self, replica_name: str) -> None:
        self._routed[replica_name].inc(1)


class SecureServingFleet:
    """N context replicas behind a router.

    Parameters
    ----------
    model_factory:
        ``(ctx) -> SecureModel`` — builds (and, for deployed weights,
        installs) the served model on one replica's context.  Called
        once per replica.
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
        Only ``"least-depth"``, the one routing rule; anything else
        raises :class:`ConfigError`.  Kept for callers that still name it.
    max_reroutes:
        Crash-recovery budget per request before the failure surfaces
        to the caller (the request stays queued, never dropped).
    audit:
        Record every replica's wire transcript
        (:meth:`Replica.wire_audit`).
    """

    def __init__(
        self,
        model_factory,
        *,
        replicas: int = 2,
        config: FrameworkConfig | None = None,
        replica_config=None,
        placement: str = "least-depth",
        max_batch: int = 64,
        max_wait_s: float = 1e-3,
        queue_rows: int | None = None,
        request_retries: int = 2,
        max_reroutes: int = 4,
        audit: bool = False,
    ):
        if replicas < 1:
            raise ServeError(f"fleet needs >= 1 replica, got {replicas}")
        if placement != "least-depth":
            raise ConfigError(
                f"unknown placement {placement!r}: the fleet routes least-depth only"
            )
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
        self.router = FleetRouter(telemetry=self.telemetry)
        self._replica_seq = itertools.count()
        self._fleet_rid = itertools.count(1)
        self._inflight: dict[tuple[str, int], FleetTicket] = {}
        self.responses: list[FleetResponse] = []
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
        """Spawn one replica (own context and model) and join the router."""
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
        self._added.inc(1)
        self._size_gauge.set(len(self.router.replicas()))
        return replica

    def retire_replica(self, name: str | None = None) -> str:
        """Drain one replica and remove it from the router (never drops work).

        With no ``name``, retires the replica the router would route to
        first: the least work to drain.
        """
        live = self.router.replicas()
        if len(live) <= 1:
            raise ServeError("cannot retire the last replica")
        if name is None:
            name = (self.router.route() or live)[0].name
        replica = self.router.get(name)
        if replica is None:
            raise ServeError(f"no live replica named {name!r}")
        # Remove from the router first so the drain cannot race new work
        # onto a replica that is leaving.
        self.router.remove(name)
        try:
            self._serve(replica, replica.drain)
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

        Tries the router's order, failing over on queue-full
        backpressure; raises the retryable :class:`QueueFullError` only
        when *every* healthy replica refuses.
        """
        x = np.asarray(x, dtype=np.float64)
        order = self.router.route()
        if not order:
            raise ServeError("fleet has no healthy replicas")
        last_full: QueueFullError | None = None
        for replica in order:
            try:
                rid = replica.submit(client_id, x)
            except QueueFullError as exc:
                last_full = exc
                continue
            fleet_rid = next(self._fleet_rid)
            self._inflight[(replica.name, rid)] = FleetTicket(
                fleet_rid=fleet_rid,
                client_id=client_id,
                x=np.array(x, copy=True),
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
            ran += self._serve(replica, replica.pump)
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
                    ran += self._serve(replica, replica.drain)
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

    # -- internals --------------------------------------------------------------

    def _serve(self, replica: Replica, serve) -> int:
        """Run ``replica.pump`` or ``replica.drain``; a crash is recovered."""
        try:
            return serve()
        except PartyFailure as failure:
            self._recover(replica, failure)
            return 0

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
        # 3. respawn the blamed party via the faults recovery path
        replica.respawn()
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
        order = self.router.route(exclude=exclude)
        if not order:
            raise ServeError("fleet has no healthy replicas to re-route onto")
        for target in order:
            try:
                rid = target.submit(ticket.client_id, ticket.x)
            except QueueFullError:
                continue
            break
        else:
            # every healthy replica is full: force-admit — re-routed work
            # was admitted once and never drops — onto the router's first
            # choice, the queue with the most headroom.
            target = order[0]
            rid = target.force_admit(ticket.client_id, ticket.x)
        ticket.replica = target.name
        ticket.replica_rid = rid
        ticket.resubmits += 1
        self._inflight[(target.name, rid)] = ticket
        self._rerouted.inc(1, to=target.name)
        self.router.note_routed(target.name)

    def _force_ticket(self, replica: Replica, ticket: FleetTicket) -> None:
        rid = replica.force_admit(ticket.client_id, ticket.x)
        ticket.replica = replica.name
        ticket.replica_rid = rid
        self._inflight[(replica.name, rid)] = ticket
