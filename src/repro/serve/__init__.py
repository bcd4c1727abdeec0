"""repro.serve — secure inference serving, from one replica to a fleet.

The serving stack in layers:

* **Replica** (:mod:`repro.serve.replica`) — one secure deployment
  (its own server pair, dealer, clocks) behind the replica
  protocol ``submit / poll / drain / stats``: a bounded
  :class:`RequestQueue` with retryable admission control, an
  :class:`AdaptiveBatcher` coalescing requests into fixed-shape batches
  (pad-and-trim, so ragged tails are served, never dropped),
  per-request latency spans (p50/p95/p99 via the telemetry histogram
  registry) and the fault-retry/blame machinery from :mod:`repro.faults`.
* **Fleet** (:mod:`repro.serve.fleet`) — N replicas behind a
  :class:`FleetRouter` with pluggable placement
  (:mod:`repro.serve.placement`: consistent-hash affinity or
  least-queue-depth), crash recovery that re-routes admitted requests
  (exactly-once, zero drops), and a journal-replay conformance oracle
  (:func:`replay_replica_journal`).

Quickstart::

    import repro

    fleet = repro.api.serve(
        lambda ctx: repro.SecureMLP(ctx, 64, hidden=(32,), n_out=10),
        replicas=4, placement="hash",
    )
    rid = fleet.submit("client-a", x_rows)      # QueueFullError = back off
    fleet.drain()                               # or pump() per event-loop tick
    report = fleet.report()                     # per-replica + fleet aggregate
"""

from repro.serve.batcher import AdaptiveBatcher, BatchPlan
from repro.serve.fleet import (
    FleetReport,
    FleetResponse,
    FleetRouter,
    FleetTicket,
    SecureServingFleet,
    replay_replica_journal,
)
from repro.serve.placement import (
    ConsistentHashPlacement,
    LeastDepthPlacement,
    PlacementPolicy,
    make_placement,
)
from repro.serve.queue import InferenceRequest, RequestQueue
from repro.serve.replica import InferenceResponse, Replica, ReplicaStats, ServeReport
from repro.util.errors import QueueFullError, ServeError

__all__ = [
    # replica layer
    "AdaptiveBatcher",
    "BatchPlan",
    "InferenceRequest",
    "InferenceResponse",
    "Replica",
    "ReplicaStats",
    "RequestQueue",
    "ServeReport",
    # fleet layer
    "ConsistentHashPlacement",
    "FleetReport",
    "FleetResponse",
    "FleetRouter",
    "FleetTicket",
    "LeastDepthPlacement",
    "PlacementPolicy",
    "SecureServingFleet",
    "make_placement",
    "replay_replica_journal",
    # errors
    "QueueFullError",
    "ServeError",
]
