"""The seeded decision engine behind a :class:`~repro.faults.plan.FaultPlan`.

Determinism contract: the decision for the k-th message on link
``src -> dst`` is a pure function of ``(plan.seed, src, dst, k)`` —
each message gets its own ``SeedSequence``-derived generator, so links
never share an RNG stream and interleaving order cannot perturb
outcomes.  Retransmissions advance the link index, which is what lets a
dropped message eventually get through under any rate < 1.

The injector also tracks the scripted state: a monotonically increasing
*step* counter (the training and inference loops advance it once per
batch), which crash specs key off, and the set of currently-crashed
parties.  Every injected fault and every restart is recorded in the
telemetry registry under ``faults.*``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.faults.plan import FaultPlan
from repro.telemetry.registry import MetricRegistry

DELIVER = "deliver"
DROP = "drop"
DUPLICATE = "duplicate"
CORRUPT = "corrupt"
DELAY = "delay"
PARTITION = "partition"


@dataclass(frozen=True)
class FaultDecision:
    """What happens to one message on one link."""

    kind: str  # deliver | drop | duplicate | corrupt | delay | partition
    link: str  # "src->dst"
    index: int  # per-link message index this decision is for
    delay_s: float = 0.0


def _h(name: str) -> int:
    """Stable 32-bit hash of an endpoint name (process-independent)."""
    return zlib.crc32(name.encode())


class FaultInjector:
    """Interprets one plan; shared by every hooked link and driver."""

    def __init__(self, plan: FaultPlan, *, telemetry=None):
        self.plan = plan
        registry = telemetry.registry if telemetry is not None else MetricRegistry()
        self._injected = registry.counter(
            "faults.injected", "fault events injected, by kind and link"
        )
        self._restarts = registry.counter(
            "faults.party_restarts", "crashed parties brought back by recovery"
        )
        self._link_index: dict[tuple[str, str], int] = {}
        self._step = 0
        self._crashed: set[str] = set()
        self._fired_crashes: set[int] = set()  # indices into plan.crashes

    # -- scripted state ---------------------------------------------------------

    @property
    def step(self) -> int:
        return self._step

    def advance_step(self, n: int = 1) -> None:
        """Move the step counter forward, firing any due crash specs."""
        self._step += int(n)
        for i, crash in enumerate(self.plan.crashes):
            if i not in self._fired_crashes and crash.at_step <= self._step:
                self._fired_crashes.add(i)
                self._crashed.add(crash.party)
                self._injected.inc(1, kind="crash", link=crash.party)

    def crashed_among(self, *parties: str) -> str | None:
        """The first crashed party among ``parties``, or None."""
        for party in parties:
            if party in self._crashed:
                return party
        return None

    def restart(self, party: str) -> None:
        """Bring a crashed party back (recovery path); idempotent."""
        if party in self._crashed:
            self._crashed.discard(party)
            self._restarts.inc(1, party=party)

    # -- per-message decisions --------------------------------------------------

    def decide(self, src: str, dst: str) -> FaultDecision:
        """Consume one per-link message slot and rule on its fate."""
        index = self._link_index.get((src, dst), 0)
        self._link_index[(src, dst)] = index + 1
        link = f"{src}->{dst}"
        for part in self.plan.partitions:
            if part.src == src and part.dst == dst and part.covers(index):
                self._injected.inc(1, kind=PARTITION, link=link)
                return FaultDecision(kind=PARTITION, link=link, index=index)
        plan = self.plan
        if plan.fault_rate == 0.0:
            return FaultDecision(kind=DELIVER, link=link, index=index)
        rng = np.random.default_rng(
            np.random.SeedSequence([plan.seed & 0xFFFFFFFF, _h(src), _h(dst), index])
        )
        u = rng.random()
        edge = plan.drop
        if u < edge:
            kind = DROP
        elif u < (edge := edge + plan.duplicate):
            kind = DUPLICATE
        elif u < (edge := edge + plan.corrupt):
            kind = CORRUPT
        elif u < edge + plan.delay:
            kind = DELAY
        else:
            return FaultDecision(kind=DELIVER, link=link, index=index)
        self._injected.inc(1, kind=kind, link=link)
        return FaultDecision(
            kind=kind,
            link=link,
            index=index,
            delay_s=plan.delay_s if kind == DELAY else 0.0,
        )
