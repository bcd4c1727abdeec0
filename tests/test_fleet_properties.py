"""Hypothesis property tests for fleet routing and recovery.

The router-level invariants the fleet design doc promises, held under
arbitrary inputs rather than the example paths in test_fleet.py:

* the router never ranks a deeper queue first and never offers a
  crashed replica, whatever the health mix;
* exactly-once delivery holds under arbitrary chaos seeds and request
  interleavings — every admitted request is answered exactly once;
* the same holds over long stateful sequences of submit / pump /
  scale-out / retire / drain with a crashing replica (``FleetMachine``),
  and every replica's calls replay bit-identically on a standalone twin.

The router reads only ``name`` / ``queue.depth_rows`` /
``crashed_party``, so lightweight stand-ins rank without a live secure
deployment; only the end-to-end properties spin real fleets.
"""

from __future__ import annotations

from types import SimpleNamespace

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
from oracles import ReplicaRecorder

from repro.core.config import FrameworkConfig
from repro.core.models import SecureMLP
from repro.faults import FaultPlan, PartyCrash
from repro.serve import SecureServingFleet
from repro.serve.fleet import FleetRouter
from repro.util.errors import QueueFullError

pytestmark = pytest.mark.property

N_FEATURES = 12


def _model(ctx):
    return SecureMLP(ctx, N_FEATURES, hidden=(6,), n_out=3)


class _Stub:
    """Duck-typed replica: the router reads name/depth/health only."""

    def __init__(self, name, depth=0, crashed=False):
        self.name = name
        self.queue = SimpleNamespace(depth_rows=depth)
        self.crashed_party = "server1" if crashed else None

    def __repr__(self):
        return f"_Stub({self.name!r})"


class TestLeastDepthAndHealth:
    @given(
        depths=st.lists(st.integers(0, 500), min_size=1, max_size=8),
        exclude=st.integers(0, 9),
    )
    @settings(max_examples=100, deadline=None)
    def test_least_depth_ranks_shallowest_first(self, depths, exclude):
        router = FleetRouter()
        for i, d in enumerate(depths):
            router.add(_Stub(f"replica{i}", depth=d))
        order = router.route(exclude=f"replica{exclude}")
        ranked = [(r.queue.depth_rows, r.name) for r in order]
        assert ranked == sorted(ranked)
        expected = {f"replica{i}" for i in range(len(depths))} - {f"replica{exclude}"}
        # excluding the only replica falls back to it
        assert {r.name for r in order} == (expected or {"replica0"})

    @given(health=st.lists(st.booleans(), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_router_never_routes_to_a_crashed_replica(self, health):
        router = FleetRouter()
        for i, crashed in enumerate(health):
            router.add(_Stub(f"replica{i}", depth=i, crashed=crashed))
        order = router.route()
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
            _model,
            replicas=2,
            config=FrameworkConfig.parsecureml(),
            replica_config=lambda i, cfg: cfg.but(fault_plan=plan) if i == 0 else cfg,
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
    response with the rows it was submitted with.  At teardown every
    live and retired replica's calls replay on a standalone twin with
    bit-identical transcript and predictions.  The queue-row bound is
    deliberately not asserted: crash re-routing still force-admits past
    it when every healthy replica is full (ROADMAP Harden (4)).
    """

    MAX_REPLICAS = 4

    def __init__(self):
        super().__init__()
        self.recorder = ReplicaRecorder()

    @initialize()
    def deploy(self):
        plan = FaultPlan(seed=0, crashes=(PartyCrash("server1", at_step=1),))
        self.recorder.start()
        self.fleet = SecureServingFleet(
            _model,
            replicas=2,
            config=FrameworkConfig.parsecureml(),
            replica_config=lambda i, cfg: cfg.but(fault_plan=plan) if i == 0 else cfg,
            max_batch=4,
            queue_rows=8,
            request_retries=0,
            audit=True,
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

    def teardown(self):
        results = self.recorder.verify(_model)
        assert all(d is None for d in results.values()), results
        if hasattr(self, "fleet"):
            served = {r.replica for r in self.fleet.report().responses}
            assert served <= set(results)


FleetMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=25, deadline=None
)
TestFleetMachine = FleetMachine.TestCase
