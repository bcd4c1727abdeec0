"""Channels, CSR codec, compressed transmission."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.channel import Channel, ETHERNET_10G, INFINIBAND_100G, LinkSpec
from repro.comm.compression import CompressedPayload, DeltaCompressor
from repro.comm.csr import csr_decode, csr_encode, csr_nbytes, dense_nbytes
from repro.simgpu.clock import SimClock
from repro.telemetry import Telemetry
from repro.util.errors import ConfigError, ProtocolError, TransportError


class TestChannel:
    def make(self, spec=INFINIBAND_100G):
        clock = SimClock()
        return clock, Channel(clock, spec, "s0", "s1")

    def test_transfer_time(self):
        clock, ch = self.make()
        t = ch.send("s0", "s1", 12_000_000_000)  # 12 GB at 12 GB/s
        assert t.duration == pytest.approx(1.0 + INFINIBAND_100G.latency_s)

    def test_byte_and_message_counters(self):
        _, ch = self.make()
        ch.send("s0", "s1", 100)
        ch.send("s1", "s0", 50)
        assert ch.bytes_sent[("s0", "s1")] == 100
        assert ch.total_bytes == 150
        assert ch.total_messages == 2

    def test_full_duplex(self):
        _, ch = self.make()
        t1 = ch.send("s0", "s1", 10**9)
        t2 = ch.send("s1", "s0", 10**9)
        assert t2.start == 0.0  # opposite directions do not serialise

    def test_same_direction_serialises(self):
        _, ch = self.make()
        t1 = ch.send("s0", "s1", 10**9)
        t2 = ch.send("s0", "s1", 10**9)
        assert t2.start == t1.finish

    def test_unknown_endpoints(self):
        _, ch = self.make()
        with pytest.raises(TransportError):
            ch.send("s0", "elsewhere", 10)

    def test_negative_size(self):
        _, ch = self.make()
        with pytest.raises(TransportError):
            ch.send("s0", "s1", -1)

    def test_ethernet_slower_than_ib(self):
        assert ETHERNET_10G.transfer_seconds(10**9) > INFINIBAND_100G.transfer_seconds(10**9)


class TestCSR:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.floats(0, 1), st.integers(0, 999))
    def test_roundtrip(self, m, n, sparsity, seed):
        rng = np.random.default_rng(seed)
        dense = rng.normal(size=(m, n))
        dense[rng.random((m, n)) < sparsity] = 0.0
        assert np.array_equal(csr_decode(csr_encode(dense)), dense)

    def test_uint64_roundtrip(self, rng):
        dense = rng.integers(0, 2**64, size=(6, 6), dtype=np.uint64)
        dense[dense % np.uint64(3) == 0] = np.uint64(0)
        assert np.array_equal(csr_decode(csr_encode(dense)), dense)

    def test_all_zero(self):
        dense = np.zeros((4, 5))
        csr = csr_encode(dense)
        assert csr.indices.size == 0
        assert np.array_equal(csr_decode(csr), dense)

    def test_nbytes_prediction_matches_encoding(self, rng):
        dense = rng.normal(size=(20, 20))
        dense[rng.random((20, 20)) < 0.8] = 0.0
        assert csr_nbytes(dense) == csr_encode(dense).nbytes

    def test_sparse_smaller_than_dense(self, rng):
        dense = np.zeros((100, 100))
        dense[0, :10] = 1.0
        assert csr_nbytes(dense) < dense_nbytes(dense)


class TestDeltaCompressor:
    @pytest.mark.parametrize("threshold", [-0.1, 1.5])
    def test_threshold_outside_unit_interval_is_a_config_error(self, threshold):
        with pytest.raises(ConfigError, match="sparsity_threshold"):
            DeltaCompressor(threshold)

    def test_first_send_is_dense(self, rng):
        comp = DeltaCompressor()
        m = rng.normal(size=(8, 8))
        payload = comp.encode("k", m)
        assert payload.kind == "dense"

    def test_sparse_delta_compresses(self, rng):
        comp = DeltaCompressor(0.75)
        base = rng.normal(size=(32, 32))
        comp.encode("k", base)
        nxt = base.copy()
        nxt[0, 0] += 1.0  # 1/1024 changed
        payload = comp.encode("k", nxt)
        assert payload.kind == "csr_delta"
        assert payload.wire_bytes < dense_nbytes(nxt)

    def test_dense_delta_stays_dense(self, rng):
        comp = DeltaCompressor(0.75)
        comp.encode("k", rng.normal(size=(16, 16)))
        payload = comp.encode("k", rng.normal(size=(16, 16)))
        assert payload.kind == "dense"

    def test_receiver_reconstructs_exactly(self, rng):
        sender = DeltaCompressor(0.5)
        receiver = DeltaCompressor(0.5)
        base = rng.integers(0, 2**64, size=(16, 16), dtype=np.uint64)
        stream = [base]
        for _ in range(5):
            nxt = stream[-1].copy()
            nxt[0, 0] += np.uint64(1)
            stream.append(nxt)
        for m in stream:
            payload = sender.encode("w", m)
            got = receiver.decode(payload)
            assert np.array_equal(got, m)

    def test_threshold_respected(self, rng):
        comp = DeltaCompressor(0.99)  # requires 99% zeros
        base = rng.normal(size=(10, 10))
        comp.encode("k", base)
        nxt = base.copy()
        nxt[0, :5] += 1.0  # only 95% zeros in delta
        assert comp.encode("k", nxt).kind == "dense"

    def test_disabled_never_compresses(self, rng):
        comp = DeltaCompressor(enabled=False)
        base = rng.normal(size=(8, 8))
        comp.encode("k", base)
        assert comp.encode("k", base).kind == "dense"

    def test_delta_without_state_rejected(self):
        comp = DeltaCompressor()
        other = DeltaCompressor()
        base = np.ones((4, 4))
        other.encode("k", base)
        payload = other.encode("k", base)  # csr delta (all-zero diff)
        assert payload.kind == "csr_delta"
        with pytest.raises(ProtocolError):
            comp.decode(payload)

    def test_stats_track_savings(self, rng):
        comp = DeltaCompressor(0.5)
        base = rng.normal(size=(64, 64))
        comp.encode("k", base)
        comp.encode("k", base)  # zero delta -> tiny wire size
        assert comp.stats.raw_bytes == 2 * base.nbytes
        assert comp.stats.wire_bytes < comp.stats.raw_bytes
        assert 0 < comp.stats.savings_fraction < 1
        assert comp.stats.dense_messages == 1
        assert comp.stats.compressed_messages == 1

    def test_shape_change_resets_stream(self, rng):
        comp = DeltaCompressor()
        comp.encode("k", rng.normal(size=(4, 4)))
        payload = comp.encode("k", rng.normal(size=(8, 8)))
        assert payload.kind == "dense"

    def test_exactly_at_threshold_compresses(self, rng):
        # the threshold is inclusive: zero_fraction == 0.75 compresses
        comp = DeltaCompressor(0.75)
        base = rng.normal(size=(16, 16))
        comp.encode("k", base)
        nxt = base.copy()
        nxt.reshape(-1)[:64] += 1.0  # 192/256 zeros in the delta, exactly 0.75
        assert comp.encode("k", nxt).kind == "csr_delta"

    def test_just_below_threshold_stays_dense(self, rng):
        comp = DeltaCompressor(0.75)
        base = rng.normal(size=(16, 16))
        comp.encode("k", base)
        nxt = base.copy()
        nxt.reshape(-1)[:65] += 1.0  # 191/256 zeros, one short of the threshold
        assert comp.encode("k", nxt).kind == "dense"

    def test_sparse_enough_but_csr_larger_stays_dense(self, rng):
        # a 2x2 matrix with one changed cell clears the zero-fraction
        # bar (0.75) but CSR overhead exceeds the 32-byte dense size,
        # so the size comparison vetoes compression
        comp = DeltaCompressor(0.75)
        base = rng.normal(size=(2, 2))
        comp.encode("k", base)
        nxt = base.copy()
        nxt[0, 0] += 1.0
        assert comp.encode("k", nxt).kind == "dense"

    def test_all_zero_delta_is_near_free(self, rng):
        comp = DeltaCompressor(0.75)
        base = rng.normal(size=(16, 16))
        comp.encode("k", base)
        payload = comp.encode("k", base)  # identical resend: delta == 0
        assert payload.kind == "csr_delta"
        assert payload.wire_bytes < dense_nbytes(base) // 4
        assert payload.raw_bytes == dense_nbytes(base)

    def test_telemetry_accounting_matches_payloads(self, rng):
        # the telemetry counters must agree byte-for-byte with what the
        # payloads themselves report having cost
        tel = Telemetry()
        comp = DeltaCompressor(0.75, telemetry=tel, direction="s0->s1")
        base = rng.normal(size=(32, 32))
        stream = [base, base.copy(), rng.normal(size=(32, 32))]
        stream[1][0, 0] += 1.0
        payloads = [comp.encode("k", m) for m in stream]
        kinds = [p.kind for p in payloads]
        assert kinds == ["dense", "csr_delta", "dense"]
        snap = tel.snapshot()
        assert snap.counter("comm.compression.raw_bytes") == sum(p.raw_bytes for p in payloads)
        assert snap.counter("comm.compression.wire_bytes") == sum(p.wire_bytes for p in payloads)
        assert comp.stats.raw_bytes == sum(p.raw_bytes for p in payloads)
        assert comp.stats.wire_bytes == sum(p.wire_bytes for p in payloads)
        assert comp.stats.dense_messages == 2
        assert comp.stats.compressed_messages == 1
