"""The sharded serving fleet: replica protocol, router, dealer, recovery.

Covers the serving redesign end to end:

* the :class:`Replica` protocol surface (exactly-once ``poll``, stats,
  the router's ``take_pending`` / ``force_admit`` recovery hooks);
* fleet routing: exactly-once delivery, hash affinity, 1-replica fleet
  equivalence with a standalone replica;
* the shared dealer's pool provisioning and telemetry;
* crash recovery: a replica failure re-routes admitted requests onto
  healthy replicas with zero drops, and the per-replica journals still
  replay bit-identically (:meth:`verify_conformance`);
* the p95-watermark autoscaler and the ``repro.api.serve`` entry point.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.config import FrameworkConfig
from repro.core.context import SecureContext
from repro.core.models import SecureMLP
from repro.faults import FaultPlan, PartyCrash
from repro.serve import (
    AutoscalePolicy,
    ConsistentHashPlacement,
    LeastDepthPlacement,
    Replica,
    SecureServingFleet,
    make_placement,
)
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
        s = rep.stats()
        assert s.name == "r9"
        assert (s.queued_requests, s.queued_rows) == (1, 3)
        assert not s.crashed
        rep.drain()
        s = rep.stats()
        assert (s.queued_rows, s.served_requests, s.served_rows) == (0, 1, 3)
        assert s.batches == 1 and s.online_s > 0.0

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

    def test_hash_placement_gives_session_affinity(self, rng):
        fleet = _fleet(replicas=3, placement="hash")
        for _ in range(4):
            fleet.submit("sticky", rng.normal(size=(2, N_FEATURES)))
            fleet.drain()
        homes = {r.replica for r in fleet.report().responses}
        assert len(homes) == 1

    def test_one_replica_fleet_matches_standalone(self, rng):
        queries = [
            (f"c{i}", rng.normal(size=(1 + i % 4, N_FEATURES))) for i in range(6)
        ]
        fleet = _fleet(replicas=1)
        for client, x in queries:
            fleet.submit(client, x)
        fleet.drain()
        _ctx, rep = _replica(managed_provisioning=True)
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


class TestPlacementFactory:
    def test_resolves_names_and_instances(self):
        assert isinstance(make_placement("hash"), ConsistentHashPlacement)
        assert isinstance(make_placement("least-depth"), LeastDepthPlacement)
        custom = ConsistentHashPlacement(vnodes=8)
        assert make_placement(custom) is custom

    def test_unknown_name_is_a_config_error(self):
        with pytest.raises(ConfigError):
            make_placement("round-robin")

    def test_router_never_offers_a_crashed_replica(self, rng):
        fleet = _fleet(replicas=2)
        fleet.replicas()[0].crashed_party = "server1"
        order = fleet.router.route("anyone")
        assert [r.name for r in order] == ["replica1"]


class TestDealerService:
    def test_dealer_provisions_each_working_replica_once(self, rng):
        fleet = _fleet(
            replicas=2, config=FrameworkConfig.parsecureml(pool_size=8), placement="least-depth"
        )
        for i in range(8):
            fleet.submit(f"c{i}", rng.normal(size=(4, N_FEATURES)))
        fleet.drain()
        passes = fleet.telemetry.counter("fleet.dealer.provisions")
        triplets = fleet.telemetry.counter("fleet.dealer.triplets")
        for r in fleet.replicas():
            assert passes.value(replica=r.name) == 1
            assert triplets.value(replica=r.name) > 0
        # every batch after provisioning hits the pool, never the
        # synchronous fallback path
        for r in fleet.replicas():
            assert r.ctx.telemetry.counter("mpc.pool.hits").value() > 0

    def test_replica_self_provisioning_is_disabled_under_fleet(self, rng):
        fleet = _fleet(replicas=1)
        assert fleet.replicas()[0].managed_provisioning


class TestCrashRecovery:
    def test_crash_reroutes_with_zero_drops(self, rng):
        fleet = _fleet(
            replicas=2,
            placement="least-depth",
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
        # regression: when every healthy replica is too full to admit a
        # re-shared ticket, the forced fallback used to dump it on the
        # router's first affinity choice without consulting queue
        # bounds — oversubscribing a nearly-full queue while another
        # healthy replica had several times the headroom.
        from repro.serve.fleet import FleetTicket

        fleet = _fleet(replicas=3, placement="hash", queue_rows=8)
        order = fleet.router.route("victim")
        first, rest = order[0], order[1:]
        # first affinity choice: headroom 1; the others: headroom 6
        first.submit("filler", rng.normal(size=(7, N_FEATURES)))
        for r in rest:
            r.submit("filler", rng.normal(size=(2, N_FEATURES)))
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
        # ...but admission control must steer the overload to the
        # roomiest queue, not the depth-blind affinity pick
        assert headroom[ticket.replica] == max(headroom.values()), (
            f"forced re-route chose {ticket.replica} with headroom "
            f"{headroom[ticket.replica]}, but {headroom} were available"
        )

    def test_conformance_replay_is_bit_identical(self, rng):
        fleet = _fleet(replicas=2, audit=True, placement="least-depth")
        for i in range(8):
            fleet.submit(f"c{i}", rng.normal(size=(3, N_FEATURES)))
        fleet.drain()
        assert fleet.verify_conformance() == {"replica0": None, "replica1": None}

    def test_conformance_replay_survives_chaos(self, rng):
        fleet = _fleet(
            replicas=2,
            placement="least-depth",
            replica_config=_crashy_replica0(),
            request_retries=0,
            audit=True,
        )
        for i in range(10):
            fleet.submit(f"c{i}", rng.normal(size=(2, N_FEATURES)))
        fleet.drain()
        assert fleet.report().replica_crashes >= 1
        assert fleet.verify_conformance() == {"replica0": None, "replica1": None}

    def test_conformance_requires_audit(self, rng):
        fleet = _fleet(replicas=1)
        fleet.submit("a", rng.normal(size=(2, N_FEATURES)))
        fleet.drain()
        with pytest.raises(ServeError):
            fleet.verify_conformance()


class TestFleetLifecycle:
    def test_retire_drains_before_removal(self, rng):
        fleet = _fleet(replicas=2, placement="least-depth")
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

    def test_autoscaler_scales_up_past_the_high_watermark(self, rng):
        policy = AutoscalePolicy(
            high_p95_s=1e-9, low_p95_s=0.0, max_replicas=3, window=8,
            cooldown_ticks=1,
        )
        fleet = _fleet(replicas=1, autoscale=policy)
        for i in range(8):
            fleet.submit(f"c{i}", rng.normal(size=(4, N_FEATURES)))
            fleet.drain()
        assert len(fleet.replicas()) > 1
        assert fleet.telemetry.counter(
            "fleet.autoscale.actions").value(direction="up") >= 1

    def test_autoscaler_scales_down_below_the_low_watermark(self, rng):
        policy = AutoscalePolicy(
            high_p95_s=1e9, low_p95_s=1e8, min_replicas=1, window=8,
            cooldown_ticks=1,
        )
        fleet = _fleet(replicas=2, autoscale=policy)
        for i in range(6):
            fleet.submit(f"c{i}", rng.normal(size=(2, N_FEATURES)))
            fleet.drain()
        assert len(fleet.replicas()) == 1
        assert fleet.report().replicas_retired == 1

    def test_autoscale_policy_validates(self):
        with pytest.raises(ConfigError):
            AutoscalePolicy(high_p95_s=0.1, low_p95_s=0.2)
        with pytest.raises(ConfigError):
            AutoscalePolicy(high_p95_s=0.2, low_p95_s=0.1, min_replicas=3,
                            max_replicas=2)


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

    def test_fleet_types_on_facade(self):
        for name in ("Replica", "SecureServingFleet", "FleetRouter",
                     "DealerService"):
            assert name in repro.__all__ and getattr(repro, name) is not None
        assert repro.__version__ == "1.8.0"

    def test_router_rejects_duplicate_names(self):
        router = FleetRouter("hash")

        class _Stub:
            name = "replica0"
            crashed_party = None
            queued_rows = 0

        router.add(_Stub())
        with pytest.raises(ServeError):
            router.add(_Stub())
