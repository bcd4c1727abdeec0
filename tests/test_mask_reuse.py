"""Static-operand reuse: an unchanged weight's ``F`` and share and a
stream's ``Z`` are opened and uploaded once, never later than in Fig. 5's
transfer order.

The rule under test lives in two places: ``SecureContext``'s mask table
keeps the opened ``F`` of a static operand across steps (no second
exchange — the long-lived case of the one-mask-per-value rule, whose
within-step half is tests/test_open_once.py), and its device table keeps
``F``, the weight's share ``B_i`` and ``Z`` on the server GPUs (no
second upload).  A first use must schedule
exactly what a run with nothing resident schedules; every invalidation
must be followed by a miss; and no value may ever move.
"""

import numpy as np
import pytest
from conftest import assert_no_upload_later_than_fig5, device_table, never_reuse, openings

from repro.core.config import FrameworkConfig
from repro.core.context import SecureContext
from repro.core.inference import secure_predict
from repro.core.models import SecureMLP
from repro.core.ops import secure_matmul
from repro.core.tensor import SharedTensor
from repro.core.training import SecureTrainer
from repro.faults.recovery import respawn_party
from repro.serve import Replica

FIG5_ORDER = ["h2d:E", "h2d:A", "h2d:F", "h2d:B", "h2d:Z"]


def _cfg(**kw):
    kw.setdefault("placement_mode", "gpu_always")
    kw.setdefault("trace", True)
    return FrameworkConfig.parsecureml(**kw)


def _shared(ctx, shape, seed, label):
    values = np.random.default_rng(seed).normal(size=shape)
    return SharedTensor.from_plain(ctx, values, label=label)


def _step(ctx, x, w, label="fc"):
    """One online step of op stream ``label``: (product, tasks it placed)."""
    ctx.begin_batch()
    start = len(ctx.online_clock.trace)
    out = secure_matmul(x, w, label=label)
    return out, ctx.online_clock.trace[start:]


def _uploads(tasks, party=0):
    """Server ``party``'s uploads among ``tasks``, by step name."""
    return [t.label.partition(":")[2] for t in tasks if t.resource == f"s{party}gpu.h2d"]


def _hits(ctx, side="F", scope="static"):
    """Openings served from an earlier step (``scope="step"`` counts the
    ones served inside a step: tests/test_open_once.py)."""
    return ctx.telemetry.registry.counter("mpc.mask_reuse.hits", "").value(
        side=side, scope=scope
    )


def _device_bytes(ctx):
    return [gpu.pool.allocated_bytes for gpu in ctx.server_gpu]


# ------------------------------------------------------------- the scheduler rule


class TestSchedulerResidency:
    def test_first_use_is_the_plain_schedule(self):
        """Keeping ``F``, the weight's share and ``Z`` changes nothing a
        first product places: same tasks as one that keeps nothing."""
        runs = []
        for keep in (True, False):
            ctx = SecureContext(_cfg(fresh_triplets=not keep))
            w = _shared(ctx, (24, 8), 1, "w")
            x = _shared(ctx, (16, 24), 2, "x")
            start = len(ctx.online_clock.trace)
            secure_matmul(x, w.mark_static() if keep else w, label="fc")
            runs.append((ctx.online_clock.trace[start:], set(device_table(ctx, 0))))
        (first, kept), (plain, none) = runs
        assert first == plain and len(kept) == 3 and none == set()
        assert _uploads(first) == FIG5_ORDER

    def test_resident_operands_skip_their_slot_and_survive_the_call(self):
        ctx = SecureContext(_cfg())
        w = _shared(ctx, (24, 8), 1, "w").mark_static()
        x = _shared(ctx, (16, 24), 2, "x")
        first, first_tasks = _step(ctx, x, w)
        held = 2 * w.nbytes + 8 * 16 * 8  # F, B_i, Z
        assert _device_bytes(ctx) == [held] * 2
        second, tasks = _step(ctx, x, w)
        assert _uploads(tasks) == ["h2d:E", "h2d:A"]
        for party in (0, 1):
            np.testing.assert_array_equal(first.shares[party], second.shares[party])
        gpu = ctx.server_gpu[0]
        pcie = [
            sum(t.duration for t in placed if t.resource in (gpu.h2d_engine, gpu.d2h_engine))
            for placed in (first_tasks, tasks)
        ]
        assert pcie[1] < pcie[0]
        assert _device_bytes(ctx) == [held] * 2

    def test_stale_version_is_freed_and_uploaded_in_place(self):
        """A row is keyed by the value it holds, so a new value is a new
        key: uploaded at its own slot, whatever else the table holds (its
        owner — the context — frees the stale row the moment it goes)."""
        ctx = SecureContext(_cfg())
        w = _shared(ctx, (24, 8), 1, "w").mark_static()
        _step(ctx, _shared(ctx, (16, 24), 2, "x0"), w)
        held = _device_bytes(ctx)
        stale = device_table(ctx, 0)[("share", w.uid)][0]
        updated = (w - w.mul_public(0.5)).mark_static()
        _, tasks = _step(ctx, _shared(ctx, (16, 24), 3, "x1"), updated)
        assert _uploads(tasks) == FIG5_ORDER[:4]
        assert stale.freed and not device_table(ctx, 0)[("share", updated.uid)][0].freed
        assert _device_bytes(ctx) == held

    def test_nothing_is_kept_unless_asked(self):
        ctx = SecureContext(_cfg(fresh_triplets=True))
        secure_matmul(_shared(ctx, (16, 24), 2, "x"), _shared(ctx, (24, 8), 1, "w"), label="fc")
        assert device_table(ctx, 0) == {} and _device_bytes(ctx) == [0, 0]


# ------------------------------------------------- (a) first use, (b) second use


class TestFirstAndSecondUse:
    def test_first_matmul_schedules_what_a_run_with_nothing_resident_does(self, h2d_replay):
        """fresh_triplets keeps no mask material, and nothing is resident
        before a first use, so its schedule is the reference: same tasks,
        labels, resources and start times."""
        traces = {}
        for fresh in (False, True):
            ctx = SecureContext(_cfg(fresh_triplets=fresh))
            w = _shared(ctx, (96, 48), 1, "w").mark_static()
            _, traces[fresh] = _step(ctx, _shared(ctx, (64, 96), 2, "x"), w)
        assert traces[False] == traces[True]
        for party in (0, 1):
            assert sorted(_uploads(traces[False], party)) == sorted(FIG5_ORDER)
        assert_no_upload_later_than_fig5(h2d_replay)

    def test_second_matmul_opens_and_uploads_neither_f_nor_z(self):
        ctx = SecureContext(_cfg())
        recorder = ctx.attach_recorder()
        w = _shared(ctx, (96, 48), 1, "w").mark_static()
        mark = ctx.mark()
        first, _ = _step(ctx, _shared(ctx, (64, 96), 2, "x0"), w)
        first_bytes = ctx.since(mark).server_bytes
        mark = ctx.mark()
        x1 = _shared(ctx, (64, 96), 3, "x1")
        second, tasks = _step(ctx, x1, w)
        for party in (0, 1):  # nor the weight's share: only the batch crosses PCIe
            assert _uploads(tasks, party) == ["h2d:E", "h2d:A"]
        assert not any(t.label.startswith(("fc:F", "fc:combineF")) for t in tasks)
        assert _hits(ctx) == 1 and _hits(ctx, "E") == 0
        # the Eq. 5 round still costs one frame each way, now E alone
        frames = recorder.transcript().records_for(src="server0", dst="server1")
        assert [len(r.parts) for r in frames if r.tag == "fc/EF/0"] == [2, 1]
        assert ctx.since(mark).server_bytes < first_bytes
        np.testing.assert_allclose(
            second.decode(), x1.decode() @ w.decode(), atol=96 * 2**-12
        )

    def test_a_stream_without_a_static_operand_keeps_only_z(self):
        ctx = SecureContext(_cfg())
        w = _shared(ctx, (96, 48), 1, "w")  # not marked static
        _step(ctx, _shared(ctx, (64, 96), 2, "x0"), w)
        _, tasks = _step(ctx, _shared(ctx, (64, 96), 3, "x1"), w)
        assert _uploads(tasks) == FIG5_ORDER[:4]
        assert _hits(ctx) == 0


# ------------------------------------------------------------- (c) invalidations


class TestInvalidation:
    def _warm(self, **kw):
        ctx = SecureContext(_cfg(**kw))
        w = _shared(ctx, (96, 48), 1, "w").mark_static()
        _step(ctx, _shared(ctx, (64, 96), 2, "x0"), w)
        _, tasks = _step(ctx, _shared(ctx, (64, 96), 3, "x1"), w)
        assert "h2d:F" not in _uploads(tasks)
        return ctx, w

    def test_weight_update_misses_on_f_only(self, h2d_replay):
        ctx, w = self._warm()
        held = _device_bytes(ctx)
        updated = (w - w.mul_public(0.5)).mark_static()
        assert updated.uid != w.uid
        del h2d_replay[:]
        _, tasks = _step(ctx, _shared(ctx, (64, 96), 4, "x2"), updated)
        # Z: same triplet, still resident
        assert sorted(_uploads(tasks)) == sorted(FIG5_ORDER[:4])
        assert_no_upload_later_than_fig5(h2d_replay)
        assert _hits(ctx) == 1
        assert _device_bytes(ctx) == held  # the stale F was freed, not leaked

    def test_ragged_batch_gets_a_new_triplet_and_misses_on_both(self):
        ctx, w = self._warm()
        _, tasks = _step(ctx, _shared(ctx, (40, 96), 4, "tail"), w)
        # new masks and Z; the weight's share is the same value, still there
        assert _uploads(tasks) == ["h2d:E", "h2d:A", "h2d:F", "h2d:Z"]
        assert _hits(ctx) == 1

    def test_reset_after_a_party_restart_misses_on_both(self):
        ctx, w = self._warm()
        respawn_party(ctx, "server1")
        assert _device_bytes(ctx) == [0, 0]
        _, tasks = _step(ctx, _shared(ctx, (64, 96), 4, "x2"), w)
        for party in (0, 1):
            assert _uploads(tasks, party) == FIG5_ORDER
        assert _hits(ctx) == 1
        _, tasks = _step(ctx, _shared(ctx, (64, 96), 5, "x3"), w)
        assert _uploads(tasks) == ["h2d:E", "h2d:A"] and _hits(ctx) == 2

    def test_respawned_fleet_replica_starts_cold(self):
        ctx = SecureContext(_cfg())
        replica = Replica(ctx, SecureMLP(ctx, 12, hidden=(6,), n_out=3), max_batch=8)
        rng = np.random.default_rng(0)

        def serve():
            start = len(ctx.online_clock.trace)
            replica.submit("c", rng.normal(size=(8, 12)))
            replica.drain()
            return _uploads(ctx.online_clock.trace[start:])

        assert serve().count("h2d:F") == 2  # two dense layers
        assert serve().count("h2d:F") == 0
        replica.crashed_party = "server1"
        replica.respawn()
        assert serve().count("h2d:F") == 2
        assert serve().count("h2d:F") == 0

    @pytest.mark.parametrize("extra", [{}], ids=["default"])
    def test_predictions_equal_a_run_that_never_reuses(self, extra, monkeypatch):
        """Inference, weight updates, inference again: every prediction
        bit equals a run whose caches are dropped before every batch."""
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(96, 32)), rng.normal(size=(96, 4))

        def run():
            ctx = SecureContext(_cfg(**extra))
            model = SecureMLP(ctx, 32, hidden=(16,), n_out=4)
            before = secure_predict(ctx, model, x, batch_size=32).predictions
            SecureTrainer(ctx, model, lr=0.03125).train(x, y, batch_size=32)
            after = secure_predict(ctx, model, x, batch_size=32).predictions
            return ctx, before, after

        ctx, before, after = run()
        never_reuse(monkeypatch)
        cold, cold_before, cold_after = run()
        np.testing.assert_array_equal(before, cold_before)
        np.testing.assert_array_equal(after, cold_after)
        # 2 dense layers x (2 repeat batches x 2 predict calls + the first
        # training batch, whose forward still sees the served weights);
        # from then on every batch changes every weight and nothing hits
        assert _hits(ctx) == 10 and _hits(cold) == 0

    def test_training_is_bit_identical_and_keeps_z_resident(self, monkeypatch):
        # 256-128-64-4: dW's weight-sized Z is longer on PCIe than the
        # kernels Fig. 5 hides it behind, so re-uploading it every step
        # shows in the makespan (on 48-24-12-4 one upload per value
        # leaves the H2D engine room to hide it: equal to the last digit)
        def train():
            ctx = SecureContext(_cfg())
            model = SecureMLP(ctx, 256, hidden=(128, 64), n_out=4)
            rng = np.random.default_rng(0)
            report = SecureTrainer(ctx, model, lr=0.03125).train(
                rng.normal(size=(192, 256)), rng.normal(size=(192, 4)), batch_size=64
            )
            weights = np.concatenate([p.decode().ravel() for p in model.parameters()])
            return report, weights, ctx.server_gpu[0].h2d_bytes

        report, weights, uploaded = train()
        never_reuse(monkeypatch)
        cold_report, cold_weights, cold_uploaded = train()
        np.testing.assert_array_equal(weights, cold_weights)
        assert uploaded < cold_uploaded
        assert report.online_s < cold_report.online_s
        assert report.server_bytes == cold_report.server_bytes


# ------------------------------------------------------------ (d) fresh triplets


class TestFreshTriplets:
    def test_single_use_masks_are_never_cached_or_kept(self, h2d_replay):
        """No mask material outlives its product; the weight's share is
        the server's own data, not the dealer's, and stays as under
        persistent masks."""
        ctx = SecureContext(_cfg(fresh_triplets=True))
        w = _shared(ctx, (96, 48), 1, "w").mark_static()
        for seed in (2, 3, 4):
            _, tasks = _step(ctx, _shared(ctx, (64, 96), seed, "x"), w)
            fresh = FIG5_ORDER if seed == 2 else ["h2d:E", "h2d:A", "h2d:F", "h2d:Z"]
            assert sorted(_uploads(tasks)) == sorted(fresh)
            assert _device_bytes(ctx) == [w.nbytes] * 2
            assert list(device_table(ctx, 0)) == [("share", w.uid)]
        assert_no_upload_later_than_fig5(h2d_replay)
        assert _hits(ctx) == 0 and _hits(ctx, "E") == 0
        ctx.begin_batch()
        assert not openings(ctx)
