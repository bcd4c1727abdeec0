"""The sharded serving fleet: replica protocol, router, recovery.

Covers the serving redesign end to end:

* the :class:`Replica` protocol surface (exactly-once ``poll``, queue
  and served counts, the fleet's ``take_pending`` / ``force_admit``
  recovery hooks);
* fleet routing: exactly-once delivery, 1-replica fleet equivalence
  with a standalone replica, no plaintext kept once answered;
* crash recovery: a replica failure re-routes admitted requests onto
  healthy replicas with zero drops, and every replica's calls still
  replay bit-identically on a standalone twin
  (:class:`oracles.ReplicaRecorder`);
* scale-out / retire and the ``repro.api.serve`` entry point.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest
from oracles import ReplicaRecorder

import repro
from repro.core.config import FrameworkConfig
from repro.core.context import SecureContext
from repro.core.models import SecureMLP
from repro.faults import FaultPlan, PartyCrash
from repro.serve import Replica, SecureServingFleet
from repro.serve.fleet import FleetRouter
from repro.util.errors import ConfigError, QueueFullError, ServeError

N_FEATURES = 12
N_OUT = 3


def _factory(ctx):
    return SecureMLP(ctx, N_FEATURES, hidden=(6,), n_out=N_OUT)


def _replica(name="replica0", **kw):
    ctx = SecureContext(FrameworkConfig.parsecureml())
    kw.setdefault("max_batch", 8)
    return ctx, Replica(ctx, _factory(ctx), name=name, **kw)


def _fleet(replicas=2, **kw):
    kw.setdefault("config", FrameworkConfig.parsecureml())
    kw.setdefault("max_batch", 8)
    return SecureServingFleet(_factory, replicas=replicas, **kw)


def _crashy_replica0(seed=7, at_step=2):
    plan = FaultPlan(seed=seed, crashes=(PartyCrash("server1", at_step=at_step),))

    def replica_config(index, cfg):
        return cfg.but(fault_plan=plan) if index == 0 else cfg

    return replica_config


class TestReplicaProtocol:
    def test_poll_returns_each_response_exactly_once(self, rng):
        _ctx, rep = _replica()
        rep.submit("a", rng.normal(size=(8, N_FEATURES)))
        rep.drain()
        first = rep.poll()
        assert [r.client_id for r in first] == ["a"]
        assert rep.poll() == []
        rep.submit("b", rng.normal(size=(8, N_FEATURES)))
        rep.drain()
        assert [r.client_id for r in rep.poll()] == ["b"]

    def test_stats_reflect_queue_and_service(self, rng):
        _ctx, rep = _replica(name="r9")
        rep.submit("a", rng.normal(size=(3, N_FEATURES)))
        assert rep.name == "r9"
        assert (len(rep.queue), rep.queued_rows) == (1, 3)
        assert rep.crashed_party is None
        rep.drain()
        report = rep.report()
        assert (rep.queued_rows, report.served_requests, report.served_rows) == (0, 1, 3)
        assert report.batches == 1 and report.online_s > 0.0

    def test_take_pending_empties_the_queue(self, rng):
        _ctx, rep = _replica()
        rep.submit("a", rng.normal(size=(2, N_FEATURES)))
        rep.submit("b", rng.normal(size=(3, N_FEATURES)))
        taken = rep.take_pending()
        assert [t.client_id for t in taken] == ["a", "b"]
        assert len(rep.queue) == 0 and rep.queued_rows == 0

    def test_force_admit_bypasses_the_row_bound(self, rng):
        _ctx, rep = _replica(queue_rows=4)
        rep.submit("a", rng.normal(size=(4, N_FEATURES)))
        with pytest.raises(QueueFullError):
            rep.submit("b", rng.normal(size=(2, N_FEATURES)))
        rep.force_admit("b", rng.normal(size=(2, N_FEATURES)))
        rep.drain()
        assert {r.client_id for r in rep.poll()} == {"a", "b"}


class TestFleetRouting:
    def test_exactly_once_over_many_clients(self, rng):
        fleet = _fleet(replicas=3)
        rids = [
            fleet.submit(f"c{i % 7}", rng.normal(size=(1 + i % 3, N_FEATURES)))
            for i in range(25)
        ]
        fleet.drain()
        rep = fleet.report()
        assert len(rids) == len(set(rids)) == 25
        assert rep.served_requests == 25
        assert rep.dropped_requests == 0 and rep.pending_requests == 0
        assert sorted(r.fleet_rid for r in rep.responses) == sorted(rids)

    def test_one_replica_fleet_matches_standalone(self, rng):
        queries = [
            (f"c{i}", rng.normal(size=(1 + i % 4, N_FEATURES))) for i in range(6)
        ]
        fleet = _fleet(replicas=1)
        for client, x in queries:
            fleet.submit(client, x)
        fleet.drain()
        _ctx, rep = _replica()
        for client, x in queries:
            rep.submit(client, x)
        rep.drain()
        fleet_resp = fleet.report().responses
        solo_resp = rep.report().responses
        assert len(fleet_resp) == len(solo_resp) == 6
        for a, b in zip(fleet_resp, solo_resp):
            assert a.client_id == b.client_id
            np.testing.assert_array_equal(a.predictions, b.predictions)

    def test_full_fleet_backpressure_is_retryable(self, rng):
        fleet = _fleet(replicas=2, queue_rows=4)
        fleet.submit("a", rng.normal(size=(4, N_FEATURES)))
        fleet.submit("b", rng.normal(size=(4, N_FEATURES)))
        with pytest.raises(QueueFullError):
            fleet.submit("c", rng.normal(size=(1, N_FEATURES)))
        fleet.drain()
        fleet.submit("c", rng.normal(size=(1, N_FEATURES)))
        fleet.drain()
        assert fleet.report().served_requests == 3

    def test_no_replicas_rejected(self):
        with pytest.raises(ServeError):
            _fleet(replicas=0)

    def test_fleet_keeps_no_plaintext_once_answered(self):
        # A fleet holds a request's plaintext only while its ticket is in
        # flight.  Wide rows make each wave's plaintext outweigh what a
        # wave legitimately retains (responses, telemetry spans).
        wide = 1024

        def factory(ctx):
            return SecureMLP(ctx, wide, hidden=(6,), n_out=N_OUT)

        fleet = SecureServingFleet(
            factory, replicas=2, config=FrameworkConfig.parsecureml(), max_batch=8
        )
        rng = np.random.default_rng(0)
        waves = [[rng.normal(size=(4, wide)) for _ in range(8)] for _ in range(4)]

        def serve(wave):
            for i, x in enumerate(wave):
                fleet.submit(f"c{i}", x)
            fleet.drain()

        tracemalloc.start()
        try:
            serve(waves[0])  # warm: every op stream dealt, every table filled
            gc.collect()
            before, _ = tracemalloc.get_traced_memory()
            for wave in waves[1:]:
                serve(wave)
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fleet.report().served_requests == 32
        wave_bytes = sum(x.nbytes for x in waves[1])
        assert after - before < wave_bytes, (
            f"three waves grew traced memory by {after - before} B; "
            f"one wave submits {wave_bytes} B of plaintext"
        )


class TestPlacementFactory:
    """What is left of placement: one rule, least-depth, and its name."""

    def test_resolves_names_and_instances(self, rng):
        fleet = _fleet(replicas=2, placement="least-depth")
        fleet.replicas()[0].submit("filler", rng.normal(size=(3, N_FEATURES)))
        assert [r.name for r in fleet.router.route()] == ["replica1", "replica0"]

    def test_unknown_name_is_a_config_error(self):
        for placement in ("hash", "least_depth", "round-robin", None):
            with pytest.raises(ConfigError, match="least-depth only"):
                _fleet(replicas=1, placement=placement)

    def test_router_never_offers_a_crashed_replica(self, rng):
        fleet = _fleet(replicas=2)
        fleet.replicas()[0].crashed_party = "server1"
        order = fleet.router.route()
        assert [r.name for r in order] == ["replica1"]


class TestCrashRecovery:
    def test_crash_reroutes_with_zero_drops(self, rng):
        fleet = _fleet(
            replicas=2,
            replica_config=_crashy_replica0(),
            request_retries=0,
            audit=True,
        )
        for i in range(10):
            fleet.submit(f"c{i}", rng.normal(size=(2, N_FEATURES)))
        fleet.drain()
        rep = fleet.report()
        assert rep.replica_crashes >= 1
        assert rep.rerouted_requests >= 1
        assert rep.served_requests == 10
        assert rep.dropped_requests == 0 and rep.pending_requests == 0
        # the crashed replica respawned and is healthy again
        assert all(r.crashed_party is None for r in fleet.replicas())

    def test_forced_reroute_targets_the_replica_with_most_headroom(self, rng):
        # When every healthy replica is too full to admit a re-shared
        # ticket, the forced fallback must oversubscribe the queue with
        # the most headroom, never a nearly-full one.
        from repro.serve.fleet import FleetTicket

        fleet = _fleet(replicas=3, queue_rows=8)
        order = fleet.replicas()
        # replica0: headroom 1; replica1: headroom 6; replica2: headroom 5
        for r, rows in zip(order, (7, 2, 3)):
            r.submit("filler", rng.normal(size=(rows, N_FEATURES)))
        headroom = {
            r.name: r.queue.max_rows - r.queue.depth_rows for r in order
        }
        ticket = FleetTicket(
            fleet_rid=99,
            client_id="victim",
            x=rng.normal(size=(7, N_FEATURES)),
            replica="crashed",
            replica_rid=0,
        )
        fleet._resubmit(ticket, exclude="crashed")
        # never dropped...
        assert ticket.resubmits == 1
        assert (ticket.replica, ticket.replica_rid) in fleet._inflight
        # ...but the overload must land on the roomiest queue
        assert headroom[ticket.replica] == max(headroom.values()), (
            f"forced re-route chose {ticket.replica} with headroom "
            f"{headroom[ticket.replica]}, but {headroom} were available"
        )

    def test_conformance_replay_is_bit_identical(self, rng):
        with ReplicaRecorder() as recorder:
            fleet = _fleet(replicas=2, audit=True)
            for i in range(8):
                fleet.submit(f"c{i}", rng.normal(size=(3, N_FEATURES)))
            fleet.drain()
        assert recorder.verify(_factory) == {"replica0": None, "replica1": None}

    def test_conformance_replay_survives_chaos(self, rng):
        with ReplicaRecorder() as recorder:
            fleet = _fleet(
                replicas=2,
                replica_config=_crashy_replica0(),
                request_retries=0,
                audit=True,
            )
            for i in range(10):
                fleet.submit(f"c{i}", rng.normal(size=(2, N_FEATURES)))
            fleet.drain()
        assert fleet.report().replica_crashes >= 1
        ops = {call[0] for calls in recorder.calls.values() for call in calls}
        assert {"take_pending", "respawn"} <= ops
        assert recorder.verify(_factory) == {"replica0": None, "replica1": None}

    def test_conformance_requires_audit(self, rng):
        with ReplicaRecorder() as recorder:
            fleet = _fleet(replicas=1)
            fleet.submit("a", rng.normal(size=(2, N_FEATURES)))
            fleet.drain()
        with pytest.raises(ConfigError, match="audit=True"):
            recorder.verify(_factory)

    def test_conformance_replay_catches_a_changed_request(self, rng):
        with ReplicaRecorder() as recorder:
            fleet = _fleet(replicas=1, audit=True)
            fleet.submit("a", rng.normal(size=(2, N_FEATURES)))
            fleet.drain()
        method, args, _raised = recorder.calls["replica0"][0]
        assert method == "submit"
        args[1][0, 0] += 1.0  # the replay now serves a different request
        assert recorder.verify(_factory)["replica0"] is not None


class TestFleetLifecycle:
    def test_retire_drains_before_removal(self, rng):
        fleet = _fleet(replicas=2)
        for i in range(6):
            fleet.submit(f"c{i}", rng.normal(size=(2, N_FEATURES)))
        retired = fleet.retire_replica()
        assert len(fleet.replicas()) == 1
        fleet.drain()
        rep = fleet.report()
        assert rep.served_requests == 6 and rep.dropped_requests == 0
        assert rep.replicas_retired == 1
        assert retired in rep.replicas  # retired replica still reported

    def test_cannot_retire_the_last_replica(self):
        fleet = _fleet(replicas=1)
        with pytest.raises(ServeError):
            fleet.retire_replica()


class TestApiSurface:
    def test_api_serve_builds_a_fleet(self, rng):
        fleet = repro.api.serve(_factory, replicas=2, max_batch=8)
        assert isinstance(fleet, SecureServingFleet)
        fleet.submit("a", rng.normal(size=(2, N_FEATURES)))
        fleet.drain()
        assert fleet.report().served_requests == 1

    def test_replica_seeds_are_distinct(self):
        fleet = _fleet(replicas=3)
        seeds = [r.ctx.config.seed for r in fleet.replicas()]
        assert len(set(seeds)) == 3

    def test_serve_all_exports_importable(self):
        import repro.serve as serve_pkg

        for name in serve_pkg.__all__:
            assert getattr(serve_pkg, name) is not None
        gone = {"FleetRouter", "ReplicaStats", "replay_replica_journal", "make_placement"}
        assert not gone & set(serve_pkg.__all__)

    def test_fleet_types_on_facade(self):
        for name in ("Replica", "SecureServingFleet"):
            assert name in repro.__all__ and getattr(repro, name) is not None
        assert "FleetRouter" not in repro.__all__
        assert repro.__version__ == "1.8.0"

    def test_router_rejects_duplicate_names(self):
        router = FleetRouter()

        class _Stub:
            name = "replica0"
            crashed_party = None

        router.add(_Stub())
        with pytest.raises(ServeError):
            router.add(_Stub())
