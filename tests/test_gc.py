"""Garbled-circuit engine: circuits, OT, garbling, end-to-end comparison."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gc.circuits import Circuit, build_adder_compare_circuit, evaluate_plain
from repro.gc.compare import gc_secure_ge_const
from repro.gc.garble import Evaluator, Garbler
from repro.gc.ot import ObliviousTransferReceiver, ObliviousTransferSender, run_ot
from repro.util.errors import ConfigError, ProtocolError

# Nothing in the system calls repro.gc; it is kept as an independent
# oracle for the dealer comparison, so CI runs it in its own step.
pytestmark = pytest.mark.slow


class TestCircuitBuilder:
    def test_gate_basis(self):
        c = Circuit(n_garbler_inputs=2, n_evaluator_inputs=0)
        w = c.and_(c.garbler_input(0), c.garbler_input(1))
        c.mark_output(c.not_(w))
        assert evaluate_plain(c, [1, 1], []) == [0]  # NAND
        assert evaluate_plain(c, [1, 0], []) == [1]

    def test_xor_gate(self):
        c = Circuit(n_garbler_inputs=1, n_evaluator_inputs=1)
        c.mark_output(c.xor(c.garbler_input(0), c.evaluator_input(0)))
        for a in (0, 1):
            for b in (0, 1):
                assert evaluate_plain(c, [a], [b]) == [a ^ b]

    def test_input_range_checks(self):
        c = Circuit(n_garbler_inputs=2, n_evaluator_inputs=1)
        with pytest.raises(ConfigError):
            c.garbler_input(2)
        with pytest.raises(ConfigError):
            c.evaluator_input(1)

    def test_wrong_input_count_rejected(self):
        c = Circuit(n_garbler_inputs=1, n_evaluator_inputs=1)
        c.mark_output(c.xor(0, 1))
        with pytest.raises(ConfigError):
            evaluate_plain(c, [1, 0], [0])


class TestCompareCircuit:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(-(2**12), 2**12),
        st.integers(-(2**10), 2**10),
        st.integers(0, 2**16 - 1),
    )
    def test_matches_integer_comparison(self, x, c, x0):
        n = 16
        circ = build_adder_compare_circuit(n, constant=c % 2**n)
        x1 = (x - x0) % 2**n
        bits0 = [(x0 >> i) & 1 for i in range(n)]
        bits1 = [(x1 >> i) & 1 for i in range(n)]
        assert evaluate_plain(circ, bits0, bits1) == [1 if x >= c else 0]

    def test_and_count_is_linear(self):
        c16 = build_adder_compare_circuit(16, constant=12345)
        c32 = build_adder_compare_circuit(32, constant=12345)
        assert c16.n_and_gates <= 2 * 16
        assert c32.n_and_gates <= 2 * 32
        assert c32.n_and_gates > c16.n_and_gates

    def test_minimum_width(self):
        with pytest.raises(ConfigError):
            build_adder_compare_circuit(1)


class TestOT:
    def test_both_choices(self):
        m0, m1 = b"0" * 16, b"1" * 16
        assert run_ot(m0, m1, 0) == m0
        assert run_ot(m0, m1, 1) == m1

    def test_receiver_cannot_decrypt_other(self):
        m0, m1 = b"A" * 16, b"B" * 16
        sender = ObliviousTransferSender(m0, m1)
        receiver = ObliviousTransferReceiver(0)
        pk0 = receiver.request(sender.public_c)
        msg = sender.respond(pk0)
        # decrypting the *other* slot with the receiver's key gives junk
        receiver.choice = 1
        other = receiver.receive(msg)
        assert other != m1

    def test_invalid_choice_bit(self):
        with pytest.raises(ProtocolError):
            ObliviousTransferReceiver(2)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ProtocolError):
            ObliviousTransferSender(b"ab", b"a")

    def test_receive_before_request(self):
        r = ObliviousTransferReceiver(0)
        with pytest.raises(ProtocolError):
            r.receive(None)


class TestGarbling:
    def _random_circuit(self, rng, n_gates=30):
        c = Circuit(n_garbler_inputs=4, n_evaluator_inputs=4)
        wires = list(range(8))
        for _ in range(n_gates):
            op = rng.choice(["XOR", "AND", "NOT"])
            a = int(rng.choice(wires))
            b = int(rng.choice(wires))
            if op == "XOR":
                wires.append(c.xor(a, b))
            elif op == "AND":
                wires.append(c.and_(a, b))
            else:
                wires.append(c.not_(a))
        for w in wires[-3:]:
            c.mark_output(w)
        return c

    def test_garbled_matches_plain_on_random_circuits(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            circ = self._random_circuit(rng)
            garbler = Garbler(circ, seed=bytes([trial]))
            ev = Evaluator(garbler.garbled)
            for _ in range(8):
                g_bits = [int(b) for b in rng.integers(0, 2, 4)]
                e_bits = [int(b) for b in rng.integers(0, 2, 4)]
                labels_g = garbler.garbler_input_labels(g_bits)
                labels_e = [
                    pair[bit]
                    for pair, bit in zip(garbler.evaluator_input_label_pairs(), e_bits)
                ]
                assert ev.evaluate(labels_g, labels_e) == evaluate_plain(circ, g_bits, e_bits)

    def test_deterministic_with_seed(self):
        circ = build_adder_compare_circuit(8, constant=3)
        g1 = Garbler(circ, seed=b"fixed")
        g2 = Garbler(circ, seed=b"fixed")
        assert g1.garbled.tables == g2.garbled.tables

    def test_wrong_label_count_rejected(self):
        circ = build_adder_compare_circuit(8, constant=0)
        garbler = Garbler(circ, seed=b"x")
        ev = Evaluator(garbler.garbled)
        with pytest.raises(ProtocolError):
            ev.evaluate([], [])


class TestEndToEndComparison:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(-(2**10), 2**10), st.integers(0, 2**16 - 1), st.integers(-100, 100))
    def test_gc_compare_16bit(self, x, x0, c):
        n = 16
        x1 = (x - x0) % 2**n
        res = gc_secure_ge_const(x0, x1, c % 2**n, n_bits=n, seed=b"t")
        assert (res.share0 ^ res.share1) == (1 if x >= c else 0)

    def test_gc_compare_64bit_matches_dealer_protocol(self, rng, encoder):
        """Cross-validate the two comparison back-ends on the same input."""
        from repro.mpc.comparison import ComparisonDealer, secure_ge_const
        from repro.mpc.shares import reconstruct, share_secret

        values = np.array([[-1.5, 0.2], [0.5, 3.0]])
        encoded = encoder.encode(values)
        pair = share_secret(encoded, rng)
        c_enc = int(encoder.encode(np.float64(0.5)))
        dealer = ComparisonDealer(np.random.default_rng(7))
        dealer_res = secure_ge_const(pair.share0, pair.share1, c_enc, dealer.bundle((2, 2)))
        dealer_bits = reconstruct(dealer_res.share0, dealer_res.share1)
        for idx in np.ndindex(2, 2):
            gc_res = gc_secure_ge_const(
                int(pair.share0[idx]), int(pair.share1[idx]), c_enc, seed=b"s"
            )
            assert (gc_res.share0 ^ gc_res.share1) == int(dealer_bits[idx])

    def test_output_is_masked(self):
        """Different mask seeds flip both shares, never the value."""
        r1 = gc_secure_ge_const(5, 0, 3, n_bits=16, seed=b"\x00")
        r2 = gc_secure_ge_const(5, 0, 3, n_bits=16, seed=b"\x01")
        assert r1.share0 != r2.share0  # mask differs
        assert (r1.share0 ^ r1.share1) == (r2.share0 ^ r2.share1) == 1

    def test_cost_accounting_reported(self):
        res = gc_secure_ge_const(1, 2, 0, n_bits=16, seed=b"z")
        assert res.bytes_exchanged > 0
        assert res.n_and_gates > 0
