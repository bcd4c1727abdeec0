"""Deterministic fault injection + resilient delivery.

The paper assumes a perfect 100 Gb/s fabric; this package is what makes
the reproduction survive an imperfect one.  Two halves:

* **Injection** — a seeded :class:`FaultPlan` (drop / duplicate /
  corrupt / delay rates, party-crash-at-step specs, link partitions)
  interpreted by a :class:`FaultInjector`.  Every decision is a pure
  function of ``(plan.seed, link, message index)``, so a run under a
  given plan is exactly reproducible regardless of how links interleave.
* **Resilience** — :class:`ResilientChannel` extends the cost-model
  :class:`~repro.comm.channel.Channel` with timeout/backoff
  retransmission, corruption detection and duplicate suppression, so
  retransmitted bytes and backoff waits show up in simulated makespans.
  When the retry budget is exhausted (or a party has crashed and not
  restarted) it raises :class:`PartyFailure` carrying an
  identifiable-abort-style :class:`BlameRecord` naming the faulty party.

Recovery is wired into the drivers: :class:`~repro.core.training.SecureTrainer`
checkpoints shares every K batches and replays from the last checkpoint
after a party restart; :func:`~repro.core.inference.secure_predict`
retries failed batch requests.  The chaos harness that holds every
recoverable plan to bit-identical convergence lives with its tests
(``tests/chaos_harness.py``).
"""

from repro.faults.blame import BlameRecord, PartyFailure
from repro.faults.injector import FaultDecision, FaultInjector
from repro.faults.plan import FaultPlan, LinkPartition, PartyCrash, RetryPolicy
from repro.faults.recovery import respawn_party
from repro.faults.reliable import ResilientChannel

__all__ = [
    "FaultPlan",
    "PartyCrash",
    "LinkPartition",
    "RetryPolicy",
    "FaultDecision",
    "FaultInjector",
    "BlameRecord",
    "PartyFailure",
    "ResilientChannel",
    "respawn_party",
]
