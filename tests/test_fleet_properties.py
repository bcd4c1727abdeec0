"""Hypothesis property tests for fleet routing and recovery.

The router-level invariants the fleet design doc promises, held under
arbitrary inputs rather than the example paths in test_fleet.py:

* consistent-hash stability — adding or removing a replica only moves
  the clients whose ring owner changed, everyone else stays put;
* least-depth never ranks a deeper queue first and the router never
  offers a crashed replica, whatever the health mix;
* exactly-once delivery holds under arbitrary chaos seeds and request
  interleavings — every admitted request is answered exactly once;
* the same holds over long stateful sequences of submit / pump /
  scale-out / retire / drain with a crashing replica (``FleetMachine``).

Placement policies are duck-typed on ``name`` / ``queued_rows`` /
``crashed_party``, so lightweight stand-ins rank without a live secure
deployment; only the end-to-end chaos property spins real fleets.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.config import FrameworkConfig
from repro.core.models import SecureMLP
from repro.faults import FaultPlan, PartyCrash
from repro.serve import SecureServingFleet
from repro.serve.fleet import FleetRouter
from repro.serve.placement import ConsistentHashPlacement, LeastDepthPlacement
from repro.util.errors import QueueFullError

pytestmark = pytest.mark.property

N_FEATURES = 12


class _Stub:
    """Duck-typed replica: placement reads name/depth/health only."""

    def __init__(self, name, depth=0, crashed=False):
        self.name = name
        self.queued_rows = depth
        self.crashed_party = "server1" if crashed else None

    def __repr__(self):
        return f"_Stub({self.name!r})"


_names = st.lists(
    st.integers(min_value=0, max_value=9).map(lambda i: f"replica{i}"),
    min_size=2, max_size=6, unique=True,
)
_clients = st.lists(
    st.integers(min_value=0, max_value=10_000).map(lambda i: f"client{i}"),
    min_size=1, max_size=40, unique=True,
)


class TestConsistentHashStability:
    @given(names=_names, clients=_clients, extra=st.integers(10, 19))
    @settings(max_examples=100, deadline=None)
    def test_add_moves_only_clients_owned_by_the_newcomer(self, names, clients, extra):
        ring = ConsistentHashPlacement()
        for n in names:
            ring.add_replica(n)
        before = {c: ring.owner(c, names) for c in clients}
        newcomer = f"replica{extra}"
        ring.add_replica(newcomer)
        after = {c: ring.owner(c, names + [newcomer]) for c in clients}
        for c in clients:
            if after[c] != before[c]:
                assert after[c] == newcomer  # moved clients moved TO the newcomer

    @given(names=_names, clients=_clients, victim=st.integers(0, 5))
    @settings(max_examples=100, deadline=None)
    def test_remove_moves_only_the_victims_clients(self, names, clients, victim):
        ring = ConsistentHashPlacement()
        for n in names:
            ring.add_replica(n)
        removed = names[victim % len(names)]
        survivors = [n for n in names if n != removed]
        before = {c: ring.owner(c, names) for c in clients}
        ring.remove_replica(removed)
        after = {c: ring.owner(c, survivors) for c in clients}
        for c in clients:
            if before[c] != removed:
                assert after[c] == before[c]  # unaffected clients stay put

    @given(names=_names, client=st.integers(0, 10_000).map(lambda i: f"c{i}"))
    @settings(max_examples=100, deadline=None)
    def test_rank_is_a_permutation_of_the_candidates(self, names, client):
        ring = ConsistentHashPlacement()
        for n in names:
            ring.add_replica(n)
        replicas = [_Stub(n) for n in names]
        order = ring.rank(client, replicas)
        assert sorted(r.name for r in order) == sorted(names)


class TestLeastDepthAndHealth:
    @given(
        depths=st.lists(st.integers(0, 500), min_size=1, max_size=8),
        client=st.text(max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_least_depth_ranks_shallowest_first(self, depths, client):
        replicas = [_Stub(f"replica{i}", depth=d) for i, d in enumerate(depths)]
        order = LeastDepthPlacement().rank(client, replicas)
        ranked = [r.queued_rows for r in order]
        assert ranked == sorted(ranked)
        assert sorted(r.name for r in order) == sorted(r.name for r in replicas)

    @given(
        health=st.lists(st.booleans(), min_size=1, max_size=6),
        policy=st.sampled_from(["hash", "least-depth"]),
        client=st.integers(0, 1000).map(lambda i: f"c{i}"),
    )
    @settings(max_examples=100, deadline=None)
    def test_router_never_routes_to_a_crashed_replica(self, health, policy, client):
        router = FleetRouter(policy)
        for i, crashed in enumerate(health):
            router.add(_Stub(f"replica{i}", depth=i, crashed=crashed))
        order = router.route(client)
        assert all(r.crashed_party is None for r in order)
        alive = sum(not c for c in health)
        assert len(order) == alive


class TestExactlyOnceUnderChaos:
    @given(
        chaos_seed=st.integers(0, 50),
        sizes=st.lists(st.integers(1, 4), min_size=4, max_size=10),
    )
    @settings(max_examples=8, deadline=None)
    def test_every_admitted_request_answered_exactly_once(self, chaos_seed, sizes):
        plan = FaultPlan(
            seed=chaos_seed, crashes=(PartyCrash("server1", at_step=2),)
        )
        fleet = SecureServingFleet(
            lambda ctx: SecureMLP(ctx, N_FEATURES, hidden=(6,), n_out=3),
            replicas=2,
            config=FrameworkConfig.parsecureml(),
            replica_config=lambda i, cfg: cfg.but(fault_plan=plan) if i == 0 else cfg,
            placement="least-depth",
            max_batch=8,
            request_retries=0,
        )
        rng = np.random.default_rng(chaos_seed)
        rids = [
            fleet.submit(f"c{i}", rng.normal(size=(rows, N_FEATURES)))
            for i, rows in enumerate(sizes)
        ]
        fleet.drain()
        rep = fleet.report()
        assert rep.served_requests == len(sizes)
        assert rep.dropped_requests == 0 and rep.pending_requests == 0
        assert sorted(r.fleet_rid for r in rep.responses) == sorted(rids)


class FleetMachine(RuleBasedStateMachine):
    """Submit / pump / scale-out / retire / drain over a live fleet whose
    replica 0 crashes ``server1`` mid-serve with no replica-level retry,
    so every crash goes through the router's recovery path.

    Invariants: nothing admitted is ever dropped, and after a drain
    nothing is pending and every admitted request has exactly one
    response with the rows it was submitted with.  The queue-row bound
    is deliberately not asserted: crash re-routing still force-admits
    past it when every healthy replica is full (ROADMAP Harden (4)).
    """

    MAX_REPLICAS = 4

    @initialize()
    def deploy(self):
        plan = FaultPlan(seed=0, crashes=(PartyCrash("server1", at_step=1),))
        self.fleet = SecureServingFleet(
            lambda ctx: SecureMLP(ctx, N_FEATURES, hidden=(6,), n_out=3),
            replicas=2,
            config=FrameworkConfig.parsecureml(),
            replica_config=lambda i, cfg: cfg.but(fault_plan=plan) if i == 0 else cfg,
            placement="least-depth",
            max_batch=4,
            queue_rows=8,
            request_retries=0,
        )
        self.rng = np.random.default_rng(0)
        self.admitted = {}  # fleet rid -> rows submitted

    @rule(client=st.integers(0, 3), rows=st.integers(1, 4))
    def submit(self, client, rows):
        try:
            rid = self.fleet.submit(f"c{client}", self.rng.normal(size=(rows, N_FEATURES)))
        except QueueFullError:
            return  # retryable backpressure: nothing was admitted
        self.admitted[rid] = rows

    @rule()
    def pump(self):
        self.fleet.pump()

    @precondition(lambda self: len(self.fleet.replicas()) < self.MAX_REPLICAS)
    @rule()
    def add_replica(self):
        self.fleet.add_replica()

    @precondition(lambda self: len(self.fleet.replicas()) >= 2)
    @rule(pick=st.integers(0, MAX_REPLICAS - 1))
    def retire_replica(self, pick):
        live = self.fleet.replicas()
        self.fleet.retire_replica(live[pick % len(live)].name)

    @rule()
    def drain(self):
        self.fleet.drain()
        assert self.fleet.pending == 0
        answered = {}
        for resp in self.fleet.report().responses:
            assert resp.fleet_rid not in answered, f"request {resp.fleet_rid} answered twice"
            answered[resp.fleet_rid] = resp.rows
        assert answered == self.admitted

    @invariant()
    def nothing_dropped(self):
        assert self.fleet.report().dropped_requests == 0


FleetMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=25, deadline=None
)
TestFleetMachine = FleetMachine.TestCase
