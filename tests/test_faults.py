"""repro.faults: deterministic injection, resilient delivery, recovery."""

import pytest

from repro.comm.channel import Channel, LinkSpec
from repro.faults import (
    FaultInjector,
    FaultPlan,
    LinkPartition,
    PartyCrash,
    PartyFailure,
    ResilientChannel,
    RetryPolicy,
)
from repro.faults.blame import BlameRecord
from repro.faults.injector import (
    CORRUPT,
    DELAY,
    DELIVER,
    DROP,
    DUPLICATE,
    PARTITION,
    FaultDecision,
)
from repro.simgpu.clock import SimClock
from repro.util.errors import ConfigError


class TestFaultPlan:
    def test_rates_must_sum_to_at_most_one(self):
        with pytest.raises(ConfigError):
            FaultPlan(drop=0.6, duplicate=0.6)
        with pytest.raises(ConfigError):
            FaultPlan(corrupt=1.5)
        with pytest.raises(ConfigError):
            FaultPlan(delay=-0.1)

    def test_scripted_event_validation(self):
        with pytest.raises(ConfigError):
            PartyCrash("server9", at_step=1)
        with pytest.raises(ConfigError):
            PartyCrash("server0", at_step=-1)
        with pytest.raises(ConfigError):
            LinkPartition("server0", "server1", start=5, stop=5)

    def test_describe_mentions_every_active_fault(self):
        plan = FaultPlan(
            seed=9,
            drop=0.25,
            crashes=(PartyCrash("server1", at_step=3),),
            partitions=(LinkPartition("server0", "server1", 0, 4),),
        )
        text = plan.describe()
        assert "drop=0.25" in text
        assert "crash(server1@3)" in text
        assert "partition(server0->server1[0:4])" in text
        assert plan.fault_rate == 0.25

    def test_plan_is_hashable_for_frozen_config(self):
        plan = FaultPlan(drop=0.1, crashes=(PartyCrash("client", at_step=1),))
        assert hash(plan) == hash(FaultPlan(drop=0.1, crashes=(PartyCrash("client", at_step=1),)))


class TestRetryPolicy:
    def test_backoff_grows_then_caps(self):
        policy = RetryPolicy(base_timeout_s=1e-4, backoff=2.0, max_backoff_s=3e-4)
        waits = [policy.timeout_s(k) for k in (1, 2, 3, 4)]
        assert waits == [1e-4, 2e-4, 3e-4, 3e-4]

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_retries=0)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(base_timeout_s=-1.0)


class TestFaultInjector:
    def test_decision_stream_is_a_pure_function_of_seed_link_index(self):
        plan = FaultPlan(seed=5, drop=0.3, duplicate=0.2, corrupt=0.2, delay=0.2)
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        stream_a = [a.decide("server0", "server1").kind for _ in range(40)]
        stream_b = [b.decide("server0", "server1").kind for _ in range(40)]
        assert stream_a == stream_b
        assert set(stream_a) != {DELIVER}  # rates high enough to fire

    def test_links_do_not_perturb_each_other(self):
        plan = FaultPlan(seed=5, drop=0.5)
        solo = FaultInjector(plan)
        expected = [solo.decide("server0", "server1").kind for _ in range(20)]
        interleaved = FaultInjector(plan)
        got = []
        for _ in range(20):
            interleaved.decide("client", "server0")  # traffic on another link
            got.append(interleaved.decide("server0", "server1").kind)
            interleaved.decide("server1", "server0")
        assert got == expected

    def test_partition_window_black_holes_exactly_its_indices(self):
        plan = FaultPlan(partitions=(LinkPartition("server0", "server1", 2, 4),))
        inj = FaultInjector(plan)
        kinds = [inj.decide("server0", "server1").kind for _ in range(6)]
        assert kinds == [DELIVER, DELIVER, PARTITION, PARTITION, DELIVER, DELIVER]
        # the reverse direction is untouched
        reverse = FaultInjector(plan)
        assert all(reverse.decide("server1", "server0").kind == DELIVER for _ in range(6))

    def test_crash_fires_at_step_and_restart_heals(self):
        plan = FaultPlan(crashes=(PartyCrash("server1", at_step=3),))
        inj = FaultInjector(plan)
        inj.advance_step(2)
        assert inj.crashed_among("server1") is None
        inj.advance_step(1)
        assert inj.crashed_among("server1") == "server1"
        assert inj.crashed_among("server0", "server1") == "server1"
        inj.restart("server1")
        assert inj.crashed_among("server1") is None
        inj.restart("server1")  # idempotent
        # a fired crash spec does not re-fire after restart
        inj.advance_step(5)
        assert inj.crashed_among("server1") is None


class _Scripted:
    """The injector surface :class:`ResilientChannel` reads, with the
    per-message decisions scripted (DELIVER once the script runs out)."""

    step = 0

    def __init__(self, *kinds, delay_s=0.0):
        self._kinds = list(kinds)
        self._delay_s = delay_s

    def crashed_among(self, *parties):
        return None

    def decide(self, src, dst):
        kind = self._kinds.pop(0) if self._kinds else DELIVER
        return FaultDecision(kind=kind, link=f"{src}->{dst}", index=0, delay_s=self._delay_s)


class TestResilientChannel:
    SPEC = LinkSpec(name="test", bandwidth_gbps=1.0, latency_s=2e-6)
    NBYTES = 4000
    POLICY = RetryPolicy(max_retries=3, base_timeout_s=50e-6)

    def channel(self, injector):
        return ResilientChannel(
            SimClock(), self.SPEC, "server0", "server1", injector=injector, policy=self.POLICY
        )

    def send(self, ch):
        return ch.send("server0", "server1", self.NBYTES, label="m")

    @property
    def transfer_s(self):
        return self.SPEC.transfer_seconds(self.NBYTES)

    def test_without_injector_a_send_is_a_channel_send(self):
        plain = Channel(SimClock(), self.SPEC, "server0", "server1")
        resilient = self.channel(None)
        for ch in (plain, resilient):
            ch.send("server1", "server0", 64, label="warm")
        want = plain.send("server0", "server1", self.NBYTES, label="m")
        got = self.send(resilient)
        assert (got.start, got.finish) == (want.start, want.finish)
        assert resilient.bytes_sent == plain.bytes_sent
        assert resilient.messages_sent == plain.messages_sent
        assert resilient.counters.retransmits.value() == 0

    def test_total_loss_blames_the_receiver(self):
        ch = self.channel(FaultInjector(FaultPlan(drop=1.0)))
        with pytest.raises(PartyFailure) as exc:
            self.send(ch)
        assert exc.value.party == "server1"
        assert exc.value.blame.reason == "retry-exhausted"
        assert exc.value.blame.attempts == self.POLICY.max_retries + 1
        assert "server0->server1" in exc.value.blame.render()
        assert ch.counters.retransmits.value() == self.POLICY.max_retries

    @pytest.mark.parametrize("party", ["server0", "server1"])
    def test_crashed_endpoint_is_convicted_and_charges_nothing(self, party):
        injector = FaultInjector(FaultPlan(crashes=(PartyCrash(party, at_step=1),)))
        injector.advance_step(1)
        ch = self.channel(injector)
        with pytest.raises(PartyFailure) as exc:
            self.send(ch)
        assert exc.value.party == party
        assert exc.value.blame.reason == "crash"
        assert ch.total_bytes == 0 and ch.total_messages == 0

    @pytest.mark.parametrize("kind", [DROP, PARTITION, CORRUPT])
    def test_lost_message_is_retransmitted_after_backoff(self, kind):
        ch = self.channel(_Scripted(kind))
        task = self.send(ch)
        assert task.finish == pytest.approx(
            self.transfer_s + self.POLICY.timeout_s(1) + self.transfer_s
        )
        assert ch.total_bytes == 2 * self.NBYTES
        assert ch.counters.retransmits.value() == 1
        assert ch.counters.retransmit_bytes.value() == self.NBYTES
        assert ch.counters.timeouts.value() == 1
        assert ch.counters.backoff_seconds.value() == pytest.approx(self.POLICY.timeout_s(1))
        assert ch.counters.corrupt_detected.value() == (kind == CORRUPT)

    def test_duplicate_charges_a_second_send(self):
        ch = self.channel(_Scripted(DUPLICATE))
        task = self.send(ch)
        assert task.finish == pytest.approx(self.transfer_s)
        assert ch.total_bytes == 2 * self.NBYTES
        assert ch.total_messages == 2
        assert ch.counters.duplicates_suppressed.value() == 1
        assert ch.counters.retransmit_bytes.value() == 0

    def test_delay_moves_the_finish_by_delay_s(self):
        delay_s = 30e-6
        ch = self.channel(_Scripted(DELAY, delay_s=delay_s))
        task = self.send(ch)
        assert task.finish == pytest.approx(self.transfer_s + delay_s)
        assert ch.total_bytes == self.NBYTES
        assert ch.counters.delays_applied.value() == 1


class TestBlame:
    def test_render_names_party_link_and_reason(self):
        record = BlameRecord(
            party="server1",
            reason="retry-exhausted",
            link="server0->server1",
            step=7,
            attempts=9,
            evidence=("no ack",),
        )
        text = record.render()
        assert "server1" in text and "retry-exhausted" in text and "no ack" in text
        failure = PartyFailure(record)
        assert failure.party == "server1"
        assert failure.blame is record
