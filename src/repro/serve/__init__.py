"""repro.serve — secure inference serving, from one replica to a fleet.

The serving stack in layers:

* **Replica** (:mod:`repro.serve.replica`) — one secure deployment
  (its own server pair, dealer, clocks) behind the replica
  protocol ``submit / poll / drain / report``: a bounded
  :class:`RequestQueue` with retryable admission control, an
  :class:`AdaptiveBatcher` coalescing requests into fixed-shape batches
  (pad-and-trim, so ragged tails are served, never dropped),
  per-request latency spans (p50/p95/p99 via the telemetry histogram
  registry) and the fault-retry/blame machinery from :mod:`repro.faults`.
* **Fleet** (:mod:`repro.serve.fleet`) — N replicas behind a router
  that sends each request to the healthy replica with the shallowest
  queue, and crash recovery that re-routes admitted requests
  (exactly-once, zero drops).

Quickstart::

    import repro

    fleet = repro.api.serve(
        lambda ctx: repro.SecureMLP(ctx, 64, hidden=(32,), n_out=10),
        replicas=4,
    )
    rid = fleet.submit("client-a", x_rows)      # QueueFullError = back off
    fleet.drain()                               # or pump() per event-loop tick
    report = fleet.report()                     # per-replica + fleet aggregate
"""

from repro.serve.batcher import AdaptiveBatcher, BatchPlan
from repro.serve.fleet import (
    FleetReport,
    FleetResponse,
    FleetTicket,
    SecureServingFleet,
)
from repro.serve.queue import InferenceRequest, RequestQueue
from repro.serve.replica import InferenceResponse, Replica, ServeReport
from repro.util.errors import QueueFullError, ServeError

__all__ = [
    # replica layer
    "AdaptiveBatcher",
    "BatchPlan",
    "InferenceRequest",
    "InferenceResponse",
    "Replica",
    "RequestQueue",
    "ServeReport",
    # fleet layer
    "FleetReport",
    "FleetResponse",
    "FleetTicket",
    "SecureServingFleet",
    # errors
    "QueueFullError",
    "ServeError",
]
