"""One upload per value: a step's GEMM operands stay on the server GPU
under the value that owns them, and ``dW`` / ``dX`` read them through a
transposed-GEMM flag.

The rule lives in ``SecureContext`` (the device table, ``device_keep``,
``_free_device``) and ``pipeline/scheduler.py`` (a kept slot found in
the table is empty).  Under test: which transfers and ``D`` kernels each
product of a training step still places, that no value moves, that a
forward-only run holds what it held before, that every owner frees its
rows the moment it goes, and — a hypothesis state machine over
train / infer / ragged batch / weight update / restart — that a product
never reads a stale buffer (``conftest.no_stale_device_hit`` checks
every hit of every test) and device memory stays bounded.
"""

from dataclasses import replace

import numpy as np
import pytest
from conftest import never_reuse
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.audit.conformance import (
    CONFORMANCE_MODELS,
    TRAIN_TOL,
    ConformanceCase,
    _tiny_workload,
)
from repro.core.config import FrameworkConfig
from repro.core.context import SecureContext
from repro.core.inference import secure_predict
from repro.core.layers import SecureDense
from repro.core.models import SecureMLP
from repro.core.ops import secure_matmul
from repro.core.tensor import SharedTensor
from repro.core.training import SecureTrainer
from repro.faults import FaultPlan, PartyCrash
from repro.faults.recovery import respawn_party
from repro.mpc.triplets import TripletDealer
from repro.pipeline.scheduler import schedule_secure_gemm
from repro.simgpu.clock import SimClock
from repro.simgpu.cost import V100_SPEC
from repro.simgpu.device import SimGPU
from repro.util.errors import DeviceError

RUNTIMES = ["lockstep", "dataflow"]
FIG5_ORDER = ["h2d:E", "h2d:A", "h2d:F", "h2d:B", "h2d:Z"]


def _ctx(**kw):
    kw.setdefault("placement_mode", "gpu_always")
    return SecureContext(FrameworkConfig.parsecureml(**kw))


def _shared(ctx, shape, seed):
    values = 0.5 * np.random.default_rng(seed).standard_normal(shape)
    return SharedTensor.from_plain(ctx, values)


def _watch(ctx, monkeypatch, party=0):
    """``[(op label, task label)]`` of every transfer and elementwise
    kernel server ``party``'s GPU places from here on, by the outermost
    open ``op.<label>`` span (works under both runtimes: the dataflow
    clock commits tasks later, in another order)."""
    gpu, spans, log = ctx.server_gpu[party], ctx.telemetry.span_log, []

    def op():
        names = (spans._spans[i].name for i in spans._stack)
        return next((n.removeprefix("op.") for n in names if n.startswith("op.")), "")

    for method in ("h2d", "elementwise"):
        def placed(*args, _real=getattr(gpu, method), **kw):
            log.append((op(), kw["label"]))
            return _real(*args, **kw)

        monkeypatch.setattr(gpu, method, placed)
    return log


def _by_op(log, prefix):
    """{op label: [task labels starting with ``prefix``]}, in program order."""
    out = {}
    for op, label in log:
        out.setdefault(op, [])
        if label.startswith(prefix):
            out[op].append(label)
    return out


def _device_bytes(ctx):
    return [gpu.pool.allocated_bytes for gpu in ctx.server_gpu]


def _dense_layers(ctx):
    return SecureDense(ctx, 12, 8, name="d0"), SecureDense(ctx, 8, 4, name="d1")


def _train_step(ctx, layers, seed, *, rows=16):
    """One training step of dense -> dense, update included: returns
    (grad_w1, dX1, grad_w0) as the step computed them."""
    d0, d1 = layers
    x = _shared(ctx, (rows, d0.in_features), seed)
    delta = _shared(ctx, (rows, d1.out_features), seed + 100)
    ctx.begin_batch()
    d1.forward(d0.forward(x))
    dh = d1.backward(delta)
    d0.backward(dh, input_grad=False)
    grads = (d1._grad_w, dh, d0._grad_w)
    for layer in layers:
        layer.apply_gradients(0.125)
    return grads


# ------------------------------------------------------- what is still uploaded


@pytest.mark.parametrize("runtime", RUNTIMES)
class TestDenseTrainStep:
    def test_dw_and_dx_read_what_the_forward_pass_uploaded(self, runtime, monkeypatch):
        ctx = _ctx(runtime=runtime)
        layers = _dense_layers(ctx)
        log = _watch(ctx, monkeypatch)
        _train_step(ctx, layers, 1)
        dealing = _by_op(log, "h2d:")
        # the step that deals a link learns only at its second stream that
        # somebody asks again: that stream re-opens, and uploads, once more
        assert dealing["d0/fwd"] == dealing["d1/fwd"] == dealing["d1/dW"] == FIG5_ORDER
        assert dealing["d0/dW"] == FIG5_ORDER
        del log[:]
        _train_step(ctx, layers, 2)
        ctx.finalize_runtime()
        uploads, leads = _by_op(log, "h2d:"), _by_op(log, "D=")
        # X, H: E and A once (forward); delta once (as dW's F and B); W1
        # once (forward) — dX multiplies four buffers that are all there
        assert uploads == {
            "d0/fwd": FIG5_ORDER[:4], "d1/fwd": FIG5_ORDER[:4],
            "d1/dW": ["h2d:F", "h2d:B"], "d1/dX": [], "d0/dW": ["h2d:F", "h2d:B"],
        }
        # D = A - i E once per value: X and H in the forward pass, delta in dX
        assert {op: len(ks) for op, ks in leads.items()} == {
            "d0/fwd": 1, "d1/fwd": 1, "d1/dW": 0, "d1/dX": 1, "d0/dW": 0,
        }

    def test_shares_and_weights_equal_a_run_that_uploads_everything_again(
        self, runtime, monkeypatch
    ):
        def run():
            ctx = _ctx(runtime=runtime)
            layers = _dense_layers(ctx)
            grads = [_train_step(ctx, layers, seed) for seed in (1, 2, 3)]
            ctx.finalize_runtime()
            weights = [layer.weight.decode() for layer in layers]
            return grads, weights, ctx.server_gpu[0].h2d_bytes, ctx.online_clock.now()

        grads, weights, uploaded, online_s = run()
        never_reuse(monkeypatch, every_product=True)
        ref_grads, ref_weights, ref_uploaded, ref_online_s = run()
        for step, ref_step in zip(grads, ref_grads):
            for got, want in zip(step, ref_step):
                for party in (0, 1):
                    np.testing.assert_array_equal(got.shares[party], want.shares[party])
        for got, want in zip(weights, ref_weights):
            np.testing.assert_array_equal(got, want)
        assert uploaded < ref_uploaded and online_s < ref_online_s


@pytest.mark.parametrize("model", CONFORMANCE_MODELS)
def test_every_model_trains_to_the_bits_of_a_run_that_uploads_everything(model, monkeypatch):
    """The conformance sweep's eight models with every product forced
    onto the GPUs (at sweep sizes the profiler places them on the CPU):
    train, predict, and compare with the upload-everything reference —
    while ``no_stale_device_hit`` checks each row a product reads."""
    case = ConformanceCase(model=model, axis="baseline", train=True, n_batches=3)
    x, y, build_secure, _plain = _tiny_workload(case)

    def run():
        ctx = SecureContext.create(case.config().but(placement_mode="gpu_always"))
        secure = build_secure(ctx)
        SecureTrainer(ctx, secure, lr=0.125).train(x, y, batch_size=case.batch_size)
        predictions = secure_predict(ctx, secure, x, batch_size=case.batch_size).predictions
        return predictions, ctx.server_gpu[0].h2d_bytes, ctx.server_gpu[0].gemm_count

    predictions, uploaded, gemms = run()
    never_reuse(monkeypatch, every_product=True)
    ref_predictions, ref_uploaded, ref_gemms = run()
    np.testing.assert_array_equal(predictions, ref_predictions)
    assert gemms == ref_gemms and uploaded < ref_uploaded


class TestViews:
    def test_the_transpose_of_a_square_value_is_read_transposed(self, monkeypatch):
        ctx = _ctx()
        w = _shared(ctx, (8, 8), 7).mark_static()
        log = _watch(ctx, monkeypatch)
        for seed in (1, 2):
            x, d = _shared(ctx, (8, 8), seed), _shared(ctx, (8, 8), seed + 50)
            ctx.begin_batch()
            del log[:]
            secure_matmul(x, w, label="fwd")
            got = secure_matmul(x.T, d, label="dW")
        assert _by_op(log, "h2d:")["dW"] == ["h2d:F", "h2d:B"]  # X's buffers, through op(A)
        np.testing.assert_allclose(got.decode(), x.decode().T @ d.decode(), atol=TRAIN_TOL)
        assert np.abs(got.decode() - x.decode() @ d.decode()).max() > 0.1

    def test_a_stack_and_its_flat_view_share_one_buffer(self, monkeypatch):
        ctx = _ctx()
        b, s, d = 4, 3, 5
        w = _shared(ctx, (d, 2), 9).mark_static()
        log = _watch(ctx, monkeypatch)
        for seed in (1, 2):
            q = _shared(ctx, (b * s, d), seed).reshape(b, s, d)
            k = _shared(ctx, (b * s, d), seed + 50).reshape(b, s, d)
            ctx.begin_batch()
            del log[:]
            scores = secure_matmul(q, k.T, label="qk")
            flat = secure_matmul(q.reshape(b * s, d), w, label="proj")
        # proj: Q's E and A are the stack qk uploaded, W's F is static
        assert _by_op(log, "h2d:") == {"qk": FIG5_ORDER[:4], "proj": ["h2d:B"]}
        table = ctx.device_table(0)
        assert table[("share", q.uid)][0].shape == (b, s, d)
        qd, kd = q.decode(), k.decode()
        np.testing.assert_allclose(scores.decode(), qd @ kd.transpose(0, 2, 1), atol=TRAIN_TOL)
        np.testing.assert_allclose(
            flat.decode(), qd.reshape(b * s, d) @ w.decode(), atol=TRAIN_TOL
        )

    def test_a_view_dies_with_the_buffer_it_reads(self):
        gpu = SimGPU(SimClock(), V100_SPEC, "g")
        buf, _ = gpu.h2d(np.arange(12, dtype=np.uint64).reshape(3, 4))
        flat = buf.view((12,))
        assert gpu.pool.allocated_bytes == 96 and buf.view((3, 4)) is buf
        gpu.free(buf)
        with pytest.raises(DeviceError, match="freed device buffer"):
            flat.require_live()


# ----------------------------------------------- who cannot ask again keeps nothing


class TestForwardOnly:
    @pytest.mark.parametrize("fresh", [False, True], ids=["persistent", "fresh_triplets"])
    def test_inference_holds_what_it_held_before(self, fresh, monkeypatch):
        """No value of a forward pass is multiplied twice, so nothing
        new stays: a static F and Z under persistent masks, nothing under
        single-use ones — and every batch places the same transfers."""
        ctx = _ctx(fresh_triplets=fresh)
        model = SecureMLP(ctx, 32, hidden=(16,), n_out=4)
        log = _watch(ctx, monkeypatch)
        x = np.random.default_rng(5).normal(size=(96, 32))
        secure_predict(ctx, model, x, batch_size=32)
        f_and_z = 8 * ((32 * 16 + 16 * 4) + (32 * 16 + 32 * 4))
        assert _device_bytes(ctx) == [0 if fresh else f_and_z] * 2
        assert {what for what, _uid in ctx.device_table(0)} == (set() if fresh else {"open", "Z"})
        per_batch = FIG5_ORDER if fresh else ["h2d:E", "h2d:A", "h2d:B"]
        assert [label for _op, label in log if label.startswith("h2d:")][-2 * len(per_batch):] == (
            per_batch * 2
        )

    def test_fresh_triplets_keep_a_shared_value_for_the_step_only(self):
        ctx = _ctx(fresh_triplets=True)
        layers = _dense_layers(ctx)
        for seed in (1, 2):
            _train_step(ctx, layers, seed)
        assert {what for what, _uid in ctx.device_table(0)} == {"open", "share", "lead"}
        ctx.begin_batch()
        assert _device_bytes(ctx) == [0, 0] and ctx.device_table(0) == {}

    def test_without_step_boundaries_only_a_static_f_and_z_stay(self):
        ctx = _ctx()
        x, w = _shared(ctx, (16, 12), 1), _shared(ctx, (12, 8), 2).mark_static()
        for seed in (3, 4):
            d = _shared(ctx, (16, 8), seed)
            secure_matmul(x, w, label="fwd")
            secure_matmul(x.T, d, label="dW")
        assert sorted(what for what, _uid in ctx.device_table(0)) == ["Z", "Z", "open"]
        assert _device_bytes(ctx) == [8 * (12 * 8 + 16 * 8 + 12 * 8)] * 2


# ------------------------------------------------------------- the scheduler rule


class TestScheduler:
    def _operands(self, m=16, k=24, n=8):
        rng = np.random.default_rng(0)
        a, b, e, f = (
            rng.integers(0, 2**64, size=shape, dtype=np.uint64)
            for shape in ((m, k), (k, n), (m, k), (k, n))
        )
        return e, f, a, b, TripletDealer(np.random.default_rng(1)).matrix_triplet((m, k), (k, n))

    def test_transposed_operands_upload_their_base_layout(self):
        """``trans`` changes which bytes lie on the device, never the
        product, the transfers or what the GEMMs cost."""
        e, f, a, b, trip = self._operands()
        runs = []
        for trans in ((False, False), (True, True)):
            clock = SimClock()
            gpu = SimGPU(clock, V100_SPEC, "g")
            flip = lambda arr, t: np.ascontiguousarray(arr.T).T if t else arr  # noqa: E731
            res = schedule_secure_gemm(
                gpu, 1, flip(e, trans[0]), flip(f, trans[1]), flip(a, trans[0]),
                flip(b, trans[1]), trip.share_for(1), trans=trans,
            )
            runs.append((res.c_share, clock.trace, gpu.gemm_flops))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        assert runs[0][1:] == runs[1][1:]

    def test_without_pipeline1_kernels_wait_on_resident_rows_too(self):
        e, f, a, b, trip = self._operands()
        keep = {"E": ("open", 1), "A": ("share", 2), "F": ("open", 3), "B": ("share", 4),
                "Z": ("Z", 5)}
        starts = {}
        for pipeline in (True, False):
            clock = SimClock()
            clock.add_resource("elsewhere")
            gpu = SimGPU(clock, V100_SPEC, "g")
            # Z is resident, but its upload (placed by an earlier product)
            # only completes at t = 1
            late = clock.run("elsewhere", 1.0, label="h2d:Z")
            table = {("Z", 5): (gpu.pool.allocate(trip.z[0]), late)}
            schedule_secure_gemm(
                gpu, 0, e, f, a, b, trip.share_for(0), pipeline=pipeline, table=table, keep=keep
            )
            starts[pipeline] = next(t.start for t in clock.trace if t.label == "D=A")
            assert set(table) == {*keep.values(), ("lead", 1)}
        assert starts[True] < 1.0 <= starts[False]

    def test_where_d_is_resident_nothing_uploads_a(self):
        """A static left operand on an unshared mask keeps ``E`` and ``D``
        but not its share: the second product has no reader for ``A_i``."""
        e, f, a, b, trip = self._operands()
        clock = SimClock()
        gpu = SimGPU(clock, V100_SPEC, "g")
        table, keep = {}, {"E": ("open", 1)}
        runs = []
        for _ in range(2):
            start = len(clock.trace)
            res = schedule_secure_gemm(gpu, 1, e, f, a, b, trip.share_for(1), table=table, keep=keep)
            runs.append((res.c_share, [t.label for t in clock.trace[start:]]))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        assert runs[0][1][:6] == [*FIG5_ORDER, "D=A-E"]
        assert runs[1][1][:3] == ["h2d:F", "h2d:B", "h2d:Z"] and "D=A-E" not in runs[1][1]
        assert set(table) == {("open", 1), ("lead", 1)}
        assert gpu.pool.allocated_bytes == 2 * e.nbytes

    def test_a_step_that_does_not_fit_names_the_device(self):
        small = replace(V100_SPEC, memory_bytes=20_000)
        ctx = _ctx(gpu_spec=small)
        layers = _dense_layers(ctx)
        _train_step(ctx, layers, 1, rows=8)  # one product's operands fit
        with pytest.raises(DeviceError, match=r"s0gpu: out of device memory"):
            for seed in (2, 3):
                _train_step(ctx, layers, seed, rows=64)


# ----------------------------------------------------- a row goes with its owner


class TestInvalidation:
    def _linked(self, rows=16):
        """fwd / dW / dX of one static weight, dealt and linked."""
        ctx = _ctx()
        w = _shared(ctx, (12, 8), 2).mark_static()
        self._step(ctx, w, 1, rows)
        self._step(ctx, w, 2, rows)
        return ctx, w

    @staticmethod
    def _step(ctx, w, seed, rows=16):
        x, d = _shared(ctx, (rows, 12), seed), _shared(ctx, (rows, 8), seed + 50)
        ctx.begin_batch()
        secure_matmul(x, w, label="fwd")
        secure_matmul(x.T, d, label="dW")
        secure_matmul(d, w.T, label="dX")

    def test_alternating_batch_shapes_do_not_grow_device_memory(self):
        ctx, w = self._linked()
        held = []
        for seed, rows in enumerate((10, 16) * 4, start=3):
            self._step(ctx, w, seed, rows)
            ctx.begin_batch()
            held.append((_device_bytes(ctx), sorted(what for what, _uid in ctx.device_table(0))))
        assert held[0::2] == [held[0]] * 4 and held[1::2] == [held[1]] * 4
        # every re-deal draws new masks and triplets; what outlives a step
        # is still W's one F and the three streams' Z
        assert held[1][1] == ["Z", "Z", "Z", "open"]

    def test_a_weight_update_frees_the_old_f_at_once(self):
        ctx, w = self._linked()
        (key,) = [key for key in ctx.device_table(0) if key[0] == "open" and key[1] in ctx._opened
                  and ctx._opened[key[1]].uid == w.uid]
        old = [ctx.device_table(i)[key][0] for i in (0, 1)]
        ctx.begin_batch()
        before = _device_bytes(ctx)
        updated = (w - w.mul_public(0.5)).mark_static()
        secure_matmul(_shared(ctx, (16, 12), 9), updated, label="fwd")
        assert all(buf.freed for buf in old)
        assert not ctx.device_table(0)[key][0].freed  # same mask, the new value
        ctx.begin_batch()
        assert _device_bytes(ctx) == before

    def test_a_redealt_stream_frees_its_z_at_once(self):
        ctx, w = self._linked()
        z_uid = ctx._matrix_triplets["fwd"].uid
        old = ctx.device_table(0)[("Z", z_uid)][0]
        ctx.begin_batch()
        ctx.get_matrix_triplet("fwd", (10, 12), (12, 8))  # a ragged batch: new triplet
        assert old.freed and ("Z", z_uid) not in ctx.device_table(0)

    @pytest.mark.parametrize("restart", ["reset_mask_reuse", "respawn_party"])
    def test_a_restart_frees_every_row(self, restart):
        ctx, w = self._linked()
        assert min(_device_bytes(ctx)) > 0
        if restart == "respawn_party":
            respawn_party(ctx, "server1")
        else:
            ctx.reset_mask_reuse()
        assert _device_bytes(ctx) == [0, 0] and ctx.device_table(0) == ctx.device_table(1) == {}
        self._step(ctx, w, 3)  # and the next step runs on cold tables

    @pytest.mark.parametrize("driver", ["inference retry", "trainer recovery"])
    def test_a_crashed_party_comes_back_to_empty_tables(self, driver, monkeypatch):
        """Both drivers recover through ``respawn_party``: at that moment
        both pools read 0, and the replayed batches give the clean bits."""
        seen = []
        reset = SecureContext.reset_mask_reuse

        def spy(ctx):
            reset(ctx)
            seen.append((_device_bytes(ctx), [len(ctx.device_table(i)) for i in (0, 1)]))

        monkeypatch.setattr(SecureContext, "reset_mask_reuse", spy)
        rng = np.random.default_rng(3)
        x, y = 0.25 * rng.normal(size=(32, 12)), np.eye(4)[rng.integers(0, 4, size=32)]

        def run(plan):
            ctx = _ctx(fault_plan=plan)
            model = SecureMLP(ctx, 12, hidden=(8,), n_out=4)
            if driver == "inference retry":
                return secure_predict(ctx, model, x, batch_size=8).predictions
            SecureTrainer(ctx, model, checkpoint_every=1).train(x, y, batch_size=8)
            return np.concatenate([p.decode().ravel() for p in model.parameters()])

        clean = run(None)
        assert not seen
        faulty = run(FaultPlan(crashes=(PartyCrash("server1", at_step=2),)))
        assert seen and all(state == ([0, 0], [0, 0]) for state in seen)
        np.testing.assert_array_equal(clean, faulty)


# ------------------------------------------------------------- long sequences

ROWS, RAGGED = 8, 5


class ResidencyMachine(RuleBasedStateMachine):
    """ROADMAP "Harden the edges" (4) for the device table: any sequence
    of steps, updates and restarts — always a miss where a row's owner
    went, never a stale hit (``conftest.no_stale_device_hit`` compares
    every row a product reads with the host operand it stands for)."""

    def __init__(self):
        super().__init__()
        self.ctx = _ctx()
        self.model = SecureMLP(self.ctx, 12, hidden=(8,), n_out=4)
        self.trainer = SecureTrainer(self.ctx, self.model, lr=0.0625)
        self.rng = np.random.default_rng(0)
        self.just_reset = False

    def _batch(self, rows):
        x = self.rng.normal(size=(rows, 12))
        y = np.eye(4)[self.rng.integers(0, 4, size=rows)]
        return x, y

    @rule(ragged=st.booleans())
    def train_step(self, ragged):
        rows = RAGGED if ragged else ROWS
        report = self.trainer.train(*self._batch(rows), batch_size=rows)
        assert np.all(np.isfinite(report.losses))
        self.just_reset = False

    @rule(ragged=st.booleans())
    def inference_batch(self, ragged):
        rows = RAGGED if ragged else ROWS
        out = secure_predict(self.ctx, self.model, self._batch(rows)[0], batch_size=rows)
        assert np.all(np.isfinite(out.predictions))
        self.just_reset = False

    @rule(layer=st.sampled_from([0, 2]))
    def weight_update(self, layer):
        dense = self.model.layers[layer]
        dense.weight = (dense.weight - dense.weight.mul_public(0.25)).mark_static()
        self.just_reset = False

    @rule(party=st.sampled_from(["server0", "server1"]))
    def respawn(self, party):
        respawn_party(self.ctx, party, charge_restart=False)
        self.just_reset = True

    @invariant()
    def restart_leaves_both_pools_empty(self):
        if self.just_reset:
            assert _device_bytes(self.ctx) == [0, 0]

    @invariant()
    def device_memory_is_bounded_by_one_step_and_the_static_rows(self):
        # a full step's operands (E, A, D of three values and F, B of the
        # others, each at most ROWS x 12 or 12 x 8) plus F and Z of five
        # streams: nothing accumulates over a sequence
        one_value = 8 * max(ROWS * 12, 12 * 8)
        assert max(_device_bytes(self.ctx)) <= (5 * 3 + 5 * 2) * one_value
        for party in (0, 1):
            rows = self.ctx.device_table(party)
            assert sum(buf.nbytes for buf, _task in rows.values()) == (
                self.ctx.server_gpu[party].pool.allocated_bytes
            )
            assert not any(buf.freed for buf, _task in rows.values())


ResidencyMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=15, deadline=None
)
TestResidencyMachine = ResidencyMachine.TestCase
