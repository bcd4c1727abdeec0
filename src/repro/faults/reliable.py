"""Resilient delivery: reliability on top of an unreliable link.

:class:`ResilientChannel` extends the cost-model
:class:`~repro.comm.channel.Channel` with the usual discipline —
timeout/backoff retransmission, duplicate suppression, blame on
exhaustion.  Corruption is modelled, not computed: a corrupted frame is
treated as detected and retransmitted, with no checksum taken over any
payload.  The numerics never touch the wire in
the framework, so resilience shows up as retransmitted bytes and backoff
waits charged on the :class:`~repro.simgpu.clock.SimClock` (they move
makespans), plus ``faults.*`` telemetry.

Blame convention: a scripted crash convicts the crashed party directly;
a sender that never sees an acknowledgement within the retry budget
blames the receiver.
"""

from __future__ import annotations

from repro.comm.channel import Channel
from repro.faults.blame import BlameRecord, PartyFailure
from repro.faults.injector import (
    CORRUPT,
    DELAY,
    DROP,
    DUPLICATE,
    FaultInjector,
    PARTITION,
)
from repro.faults.plan import RetryPolicy
from repro.simgpu.clock import SimClock
from repro.telemetry.registry import MetricRegistry

__all__ = ["ResilientChannel"]


class _FaultCounters:
    """The ``faults.*`` counter bundle :class:`ResilientChannel` records into."""

    def __init__(self, telemetry=None):
        registry = telemetry.registry if telemetry is not None else MetricRegistry()
        self.retransmits = registry.counter(
            "faults.retransmits", "frames retransmitted after timeout"
        )
        self.retransmit_bytes = registry.counter(
            "faults.retransmit_bytes", "wire bytes spent on retransmissions"
        )
        self.timeouts = registry.counter(
            "faults.timeouts", "receive/ack timeouts that triggered a retry"
        )
        self.backoff_seconds = registry.counter(
            "faults.backoff_seconds", "simulated seconds spent in backoff waits"
        )
        self.corrupt_detected = registry.counter(
            "faults.corrupt_detected", "corrupted frames treated as detected and retransmitted"
        )
        self.duplicates_suppressed = registry.counter(
            "faults.duplicates_suppressed", "frames discarded as already-seen"
        )
        self.delays_applied = registry.counter(
            "faults.delays_applied", "frames that suffered injected delay"
        )


class ResilientChannel(Channel):
    """A :class:`Channel` whose sends ride an adversarial link.

    The lockstep framework computes numerics locally and uses the
    channel purely for cost accounting, so resilience here means the
    *costs* of recovery are modelled faithfully: every retransmission
    charges its bytes through the normal ``Channel.send`` path (visible
    in ``comm.bytes`` and Fig. 16 readouts) and every timeout charges a
    backoff wait on the link direction's clock resource (visible in
    makespans).  Crashed parties and exhausted retry budgets raise
    :class:`PartyFailure` for the drivers' recovery logic.
    """

    def __init__(
        self,
        clock: SimClock,
        spec,
        a: str,
        b: str,
        *,
        telemetry=None,
        injector: FaultInjector | None = None,
        policy: RetryPolicy | None = None,
    ):
        super().__init__(clock, spec, a, b, telemetry=telemetry)
        self.injector = injector
        self.policy = policy or RetryPolicy()
        self.counters = _FaultCounters(telemetry)

    def send(self, src: str, dst: str, nbytes: int, deps=(), label: str = "msg"):
        if self.injector is None:
            return super().send(src, dst, nbytes, deps=deps, label=label)
        crashed = self.injector.crashed_among(src, dst)
        if crashed is not None:
            raise PartyFailure(
                BlameRecord(
                    party=crashed,
                    reason="crash",
                    link=f"{src}->{dst}",
                    step=self.injector.step,
                    attempts=0,
                    evidence=(f"{crashed} is down; send of {label!r} aborted",),
                )
            )
        link = f"{src}->{dst}"
        task = super().send(src, dst, nbytes, deps=deps, label=label)
        attempt = 0
        while True:
            decision = self.injector.decide(src, dst)
            if decision.kind in (DROP, PARTITION, CORRUPT):
                if decision.kind == CORRUPT:
                    self.counters.corrupt_detected.inc(1, link=link)
                attempt += 1
                if attempt > self.policy.max_retries:
                    raise PartyFailure(
                        BlameRecord(
                            party=dst,
                            reason="retry-exhausted",
                            link=link,
                            step=self.injector.step,
                            attempts=attempt,
                            evidence=(
                                f"no acknowledgement of {label!r} after "
                                f"{attempt - 1} retransmissions",
                            ),
                        )
                    )
                timeout = self.policy.timeout_s(attempt)
                self.counters.timeouts.inc(1, link=link)
                self.counters.backoff_seconds.inc(timeout, link=link)
                wait = self.clock.run(
                    self._dir[(src, dst)], timeout, deps=(task,), label=f"{label}:timeout{attempt}"
                )
                task = super().send(src, dst, nbytes, deps=(wait,), label=f"{label}:retx{attempt}")
                self.counters.retransmits.inc(1, link=link)
                self.counters.retransmit_bytes.inc(int(nbytes), link=link)
                continue
            if decision.kind == DUPLICATE:
                super().send(src, dst, nbytes, deps=(task,), label=f"{label}:dup")
                self.counters.duplicates_suppressed.inc(1, link=link)
            elif decision.kind == DELAY:
                self.counters.delays_applied.inc(1, link=link)
                task = self.clock.run(
                    self._dir[(src, dst)], decision.delay_s, deps=(task,), label=f"{label}:delayed"
                )
            return task
