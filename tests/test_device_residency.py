"""One upload per value: a step's GEMM operands stay on the server GPU
under the value that owns them, and ``dW`` / ``dX`` read them through a
transposed-GEMM flag — on both backends (``rep3``: each party's pair of
shares of a value, and a right operand's sum, at the end of the file).

The rule lives in the parties' row tables (``repro.core.rows``), in
``SecureContext.lifetime`` (one rule for both backends) and in each
backend's product (a kept slot found in the table is resident in the
plan it runs).  Under test: which transfers and ``D`` kernels each
product of a training step still places, that no value moves, that a
forward-only run keeps its weights and nothing else, that every owner
frees its rows the moment it goes — a dropped model and a replaced
weight included — and, in a hypothesis state machine over train /
infer / ragged batch / weight update / dropped model / restart, that a
product never reads a stale buffer (``conftest.no_stale_device_hit``
checks every hit of every test) and device memory stays bounded.
"""

from dataclasses import replace

import numpy as np
import pytest
from conftest import device_table, never_reuse, openings
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.audit.conformance import (
    CONFORMANCE_MODELS,
    TRAIN_TOL,
    ConformanceCase,
    conformance_workload,
)
from repro.core.config import FrameworkConfig
from repro.core.context import SecureContext
from repro.core.inference import secure_predict
from repro.core.layers import SecureDense
from repro.core.models import SecureMLP, build_secure
from repro.core.ops import secure_matmul
from repro.core.tensor import SharedTensor
from repro.core.training import SecureTrainer
from repro.faults import FaultPlan, PartyCrash
from repro.faults.recovery import respawn_party
from repro.mpc.shares import reconstruct
from repro.pipeline.profiler import plan_steps
from repro.protocols import beaver2pc
from repro.simgpu.clock import Task
from repro.simgpu.cost import V100_SPEC
from repro.util.errors import DeviceError

FIG5_ORDER = ["h2d:E", "h2d:A", "h2d:F", "h2d:B", "h2d:Z"]


def _ctx(**kw):
    kw.setdefault("placement_mode", "gpu_always")
    return SecureContext(FrameworkConfig.parsecureml(**kw))


def _shared(ctx, shape, seed):
    values = 0.5 * np.random.default_rng(seed).standard_normal(shape)
    return SharedTensor.from_plain(ctx, values)


def _watch(ctx, monkeypatch, party=0):
    """``[(op label, step name)]`` of every upload and elementwise kernel
    of the ``beaver2pc`` products server ``party``'s GPU runs from here
    on, by the outermost open ``op.<label>`` span; a step's name is its
    task label less the product's label."""
    gpu, spans, log = ctx.server_gpu[party], ctx.telemetry.span_log, []
    run_plan = ctx.profiler.run_plan

    def op():
        names = (spans._spans[i].name for i in spans._stack)
        return next((n.removeprefix("op.") for n in names if n.startswith("op.")), "")

    def placed(cpu, device, plan, shape, **kw):
        tasks = run_plan(cpu, device, plan, shape, **kw)
        if plan == "beaver2pc" and cpu is None and device is gpu:
            resident, party_ = kw.get("resident", ()), kw.get("party", 1)
            steps = plan_steps(plan, shape, resident, party_, ctx.profiler.pipeline1)[1]
            log.extend(
                (op(), task.label.partition(":")[2])
                for step, task in zip(steps, tasks) if step.op in ("h2d", "elementwise")
            )
        return tasks

    monkeypatch.setattr(ctx.profiler, "run_plan", placed)
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


def _weight_rows(ctx, weights):
    """Every device-table key, on any server, of the values ``weights``
    (uids): their share rows and the ``open``/``lead`` rows of the masks
    that opened them."""
    masks = {m for m, row in openings(ctx).items() if row.value in weights}
    return {
        (what, uid) for what, uid in _device_rows(ctx)
        if uid in (masks if what in ("open", "lead") else weights) and what != "Z"
    }


def _device_rows(ctx):
    """Every key some server holds a device row under."""
    return set().union(*(device_table(ctx, i) for i in range(ctx.n_parties)))


def _dense_layers(ctx):
    return SecureDense(ctx, 12, 8, name="d0"), SecureDense(ctx, 8, 4, name="d1")


def _train_step(ctx, layers, seed, *, rows=16):
    """One training step of dense -> dense, update included, its delta
    computed from the forward output as a loss gradient is: returns
    (grad_w1, dX1, grad_w0) as the step computed them."""
    d0, d1 = layers
    x = _shared(ctx, (rows, d0.in_features), seed)
    target = _shared(ctx, (rows, d1.out_features), seed + 100)
    ctx.begin_batch()
    dh = d1.backward(d1.forward(d0.forward(x)) - target)
    d0.backward(dh, input_grad=False)
    grads = (d1._grad_w, dh, d0._grad_w)
    for layer in layers:
        layer.apply_gradients(0.125)
    return grads


# ------------------------------------------------------- what is still uploaded


class TestDenseTrainStep:
    def test_dw_and_dx_read_what_the_forward_pass_uploaded(self, monkeypatch):
        ctx = _ctx()
        layers = _dense_layers(ctx)
        log = _watch(ctx, monkeypatch)
        _train_step(ctx, layers, 1)
        dealing = _by_op(log, "h2d:")
        # the step that deals a link learns only at its second stream that
        # somebody asks again: dW re-opens, and uploads, H once more; the
        # delta dX (issued first) uploaded is there for it, and W1's share
        # is there for dX from the forward pass (a static value's share
        # stays from its first read)
        assert dealing["d0/fwd"] == dealing["d1/fwd"] == dealing["d0/dW"] == FIG5_ORDER
        assert dealing["d1/dX"] == ["h2d:E", "h2d:A", "h2d:Z"]
        assert dealing["d1/dW"] == ["h2d:E", "h2d:A", "h2d:Z"]
        del log[:]
        _train_step(ctx, layers, 2)
        uploads, leads = _by_op(log, "h2d:"), _by_op(log, "D=")
        # X, H: E and A once (forward); delta once (as dX's E and A); W1
        # once (forward) — dW multiplies four buffers that are all there
        assert uploads == {
            "d0/fwd": FIG5_ORDER[:4], "d1/fwd": FIG5_ORDER[:4],
            "d1/dX": ["h2d:E", "h2d:A"], "d1/dW": [], "d0/dW": ["h2d:F", "h2d:B"],
        }
        # D = A - i E once per value: X and H in the forward pass, delta in dX
        assert {op: len(ks) for op, ks in leads.items()} == {
            "d0/fwd": 1, "d1/fwd": 1, "d1/dX": 1, "d1/dW": 0, "d0/dW": 0,
        }

    def test_shares_and_weights_equal_a_run_that_uploads_everything_again(self, monkeypatch):
        def run():
            ctx = _ctx()
            layers = _dense_layers(ctx)
            grads = [_train_step(ctx, layers, seed) for seed in (1, 2, 3)]
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
    _trains_to_the_bits_of_a_run_that_uploads_everything(model, "beaver2pc", monkeypatch)


def _trains_to_the_bits_of_a_run_that_uploads_everything(model, backend, monkeypatch):
    case = ConformanceCase(model=model, axis="baseline", train=True, n_batches=3, backend=backend)
    x, y, geometry = conformance_workload(case)

    def run():
        ctx = SecureContext.create(case.config().but(placement_mode="gpu_always"))
        secure = build_secure(model, ctx, **geometry)
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
        # proj: Q's E and A are the stack qk uploaded, W's F and B static
        assert _by_op(log, "h2d:") == {"qk": FIG5_ORDER[:4], "proj": []}
        table = device_table(ctx, 0)
        assert table[("share", q.uid)][0].data.shape == (b, s, d)
        qd, kd = q.decode(), k.decode()
        np.testing.assert_allclose(scores.decode(), qd @ kd.transpose(0, 2, 1), atol=TRAIN_TOL)
        np.testing.assert_allclose(
            flat.decode(), qd.reshape(b * s, d) @ w.decode(), atol=TRAIN_TOL
        )


# ----------------------------------------------- who cannot ask again keeps nothing


class TestForwardOnly:
    @pytest.mark.parametrize("fresh", [False, True], ids=["persistent", "fresh_triplets"])
    def test_inference_keeps_only_its_weights(self, fresh, monkeypatch):
        """No activation of a forward pass is multiplied twice, so only
        the weights stay: each weight's share under any masks, its F and
        each stream's Z under persistent ones — and every batch but the
        first places the same transfers."""
        ctx = _ctx(fresh_triplets=fresh)
        model = SecureMLP(ctx, 32, hidden=(16,), n_out=4)
        log = _watch(ctx, monkeypatch)
        x = np.random.default_rng(5).normal(size=(96, 32))
        secure_predict(ctx, model, x, batch_size=32)
        weights = 8 * (32 * 16 + 16 * 4)
        f_and_z = 8 * ((32 * 16 + 16 * 4) + (32 * 16 + 32 * 4))
        assert _device_bytes(ctx) == [weights + (0 if fresh else f_and_z)] * 2
        assert {what for what, _uid in device_table(ctx, 0)} == (
            {"share"} if fresh else {"open", "share", "Z"}
        )
        per_batch = ["h2d:E", "h2d:A", "h2d:F", "h2d:Z"] if fresh else ["h2d:E", "h2d:A"]
        assert [label for _op, label in log if label.startswith("h2d:")][-4 * len(per_batch):] == (
            per_batch * 4
        )

    def test_a_warm_predict_batch_uploads_no_static_weight(self, monkeypatch):
        """From the second batch on, every weight's ``F`` and share are
        on the GPUs: a product uploads its batch's ``E`` and ``A`` only."""
        ctx = _ctx()
        model = SecureMLP(ctx, 32, hidden=(16, 16), n_out=4)
        log = _watch(ctx, monkeypatch)
        begin, cuts = ctx.begin_batch, []

        def begin_batch():
            cuts.append(len(log))
            begin()

        monkeypatch.setattr(ctx, "begin_batch", begin_batch)
        x = 0.5 * np.random.default_rng(0).standard_normal((3 * 16, 32))
        secure_predict(ctx, model, x, batch_size=16)
        cold, *warm = [log[lo:hi] for lo, hi in zip(cuts, [*cuts[1:], len(log)])]
        layers = ("mlp0/fwd", "mlp1/fwd", "mlp2/fwd")
        assert _by_op(cold, "h2d:") == dict.fromkeys(layers, FIG5_ORDER)
        assert len(warm) == 2
        for batch in warm:
            assert _by_op(batch, "h2d:") == dict.fromkeys(layers, ["h2d:E", "h2d:A"])
        weights = {layer.weight.uid for layer in model.layers if hasattr(layer, "weight")}
        assert {uid for what, uid in device_table(ctx, 0) if what == "share"} == weights

    def test_fresh_triplets_keep_a_shared_value_for_the_step_only(self):
        ctx = _ctx(fresh_triplets=True)
        layers = _dense_layers(ctx)
        for seed in (1, 2):
            _train_step(ctx, layers, seed)
        assert {what for what, _uid in device_table(ctx, 0)} == {"open", "share", "lead"}
        ctx.begin_batch()
        assert _device_bytes(ctx) == [0, 0] and device_table(ctx, 0) == {}

    def test_without_steps_only_static_rows_and_z_stay(self):
        ctx = _ctx()
        x, w = _shared(ctx, (16, 12), 1), _shared(ctx, (12, 8), 2).mark_static()
        for seed in (3, 4):
            d = _shared(ctx, (16, 8), seed)
            secure_matmul(x, w, label="fwd")
            secure_matmul(x.T, d, label="dW")
        assert sorted(what for what, _uid in device_table(ctx, 0)) == ["Z", "Z", "open", "share"]
        assert _device_bytes(ctx) == [8 * (12 * 8 + 16 * 8 + 12 * 8 + 12 * 8)] * 2

    @pytest.mark.parametrize("backend", ["beaver2pc", "rep3"])
    def test_a_dropped_model_leaves_no_row_of_its_weights(self, backend):
        """A served model's weights stay on the GPUs for as long as the
        model does, and not a moment longer: once it is collected no
        share row, no ``F`` and no ``D`` of any of its weights is left —
        only the streams' ``Z``, which belong to the dealer's cache."""
        ctx = _ctx(backend=backend)
        model = SecureMLP(ctx, 32, hidden=(16,), n_out=4)
        x = np.random.default_rng(5).normal(size=(64, 32))
        secure_predict(ctx, model, x, batch_size=32)
        weights = {p.uid for p in model.parameters() if p.static}
        assert {uid for what, uid in _device_rows(ctx) if what == "share"} == weights
        assert _weight_rows(ctx, weights)
        del model
        assert _weight_rows(ctx, weights) == set()
        # what a mask opened this step stays a bare fact to the step's end
        assert not ctx.rows._owners and all(
            row.held is None and row.lifetime == "step"
            for row in openings(ctx).values() if row.value in weights
        )
        z = [sum(buf.nbytes for buf, _ in device_table(ctx, i).values()) for i in range(ctx.n_parties)]
        assert {what for what, _uid in _device_rows(ctx)} <= {"Z"} and _device_bytes(ctx) == z


    @pytest.mark.parametrize("backend", ["beaver2pc", "rep3"])
    def test_a_forward_only_step_after_training_keeps_only_static_rows(self, backend):
        """Training links ``fwd`` to ``dW``, so a predict batch's masks are
        shared and its activations' rows are ``step`` rows: they end with
        the batch (``run_secure_batch`` ends its step), not with the next
        ``begin_batch`` that a served model may never see."""
        ctx = _ctx(backend=backend)
        model = SecureMLP(ctx, 32, hidden=(16,), n_out=4)
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(64, 32)), np.eye(4)[rng.integers(0, 4, size=64)]
        SecureTrainer(ctx, model, lr=0.0625).train(x, y, batch_size=32)
        secure_predict(ctx, model, x[:32], batch_size=32)
        for party in range(ctx.n_parties):
            assert {row.lifetime for row in ctx.rows.table(party).values()} == {"static"}
        held = [sum(buf.nbytes for buf, _ in device_table(ctx, i).values()) for i in range(ctx.n_parties)]
        assert _device_bytes(ctx) == held
        weights = {p.uid for p in model.parameters() if p.static}
        assert {uid for what, uid in _device_rows(ctx) if what in ("share", "next", "sum")} <= weights

    @pytest.mark.parametrize("backend", ["beaver2pc", "rep3"])
    def test_a_kept_slice_does_not_pin_the_dataset_share(self, backend):
        """A batch slice is a view into the dataset share: a row that dies
        with its step may keep it, a row that outlives the step (a static
        slice) holds its own array, so once the step ends no row pins
        the dataset share."""
        ctx = _ctx(backend=backend)
        data = _shared(ctx, (96, 12), 1)
        w = _shared(ctx, (12, 8), 2).mark_static()
        kept = data.row_slice(32, 44).mark_static()

        def pinning():
            return [
                key for i in range(ctx.n_parties) for key, row in ctx.rows.table(i).items()
                if isinstance(getattr(row.held, "data", row.held), np.ndarray)
                and any(np.shares_memory(getattr(row.held, "data", row.held), s) for s in data.shares)
            ]

        ctx.begin_batch()
        xb = data.row_slice(0, 32)
        secure_matmul(xb, w, label="fwd")
        secure_matmul(xb.T, _shared(ctx, (32, 8), 3), label="dW")
        secure_matmul(xb, kept, label="kept")
        assert {what for what, uid in pinning()} == (
            {"share", "lead"} if backend == "beaver2pc" else {"share", "next"}
        )
        assert {uid for _what, uid in pinning() if _what == "share"} == {xb.uid}
        ctx.end_batch()
        assert pinning() == []
        assert ("share", kept.uid) in device_table(ctx, 0)


# ------------------------------------------------------------- the product's rule


def _server_steps(ctx, start, party=0):
    """``{step name: task}`` server ``party``'s GPU placed from trace
    index ``start`` on."""
    gpu = ctx.server_gpu[party]
    return {
        t.label.partition(":")[2]: t for t in ctx.online_clock.trace[start:]
        if t.resource.startswith(f"{gpu.name}.")
    }


class TestScheduler:
    def test_transposed_operands_upload_their_base_layout(self):
        """A transposed operand changes which bytes lie on the device,
        never the product, the transfers or what the GEMMs cost."""
        runs = []
        for trans in (False, True):
            ctx = _ctx(trace=True)
            rng = np.random.default_rng(0)
            operands = []
            for shape in ((16, 24), (24, 8)):
                value = rng.normal(size=shape)
                shared = SharedTensor.from_plain(ctx, value.T.copy() if trans else value)
                operands.append(shared.mark_static().T if trans else shared.mark_static())
            x, y = operands
            out = ctx.backend.matmul(ctx, x, y, label="p")
            for tensor, base in ((x, (24, 16)), (y, (8, 24))):
                held = device_table(ctx, 0)[("share", tensor.uid)][0]
                assert held.data.shape == (base if trans else base[::-1])
            flops = ctx.server_gpu[0].gemm_flops
            runs.append((reconstruct(*out.shares), ctx.online_clock.trace, flops))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        assert runs[0][1:] == runs[1][1:]

    def test_without_pipeline1_kernels_wait_on_resident_rows_too(self, monkeypatch):
        """``Z`` is resident, but its upload, placed by an earlier
        product, only completes at t = 1."""
        starts = {}
        for pipeline in (True, False):
            ctx = _ctx(pipeline1=pipeline, trace=True)
            w = _shared(ctx, (24, 8), 2).mark_static()
            kept = []
            slots = beaver2pc._slots

            def keep(*args):
                kept.append({s: key for s, (key, life) in slots(*args).items() if life != "op"})
                return slots(*args)

            monkeypatch.setattr(beaver2pc, "_slots", keep)
            for seed in (1, 3):
                ctx.begin_batch()
                if seed == 3:  # the second product finds Z uploaded late
                    for party in (0, 1):
                        ctx.rows.get(party, kept[0]["Z"]).task = Task("elsewhere", "h2d:Z", 0.0, 1.0)
                start = len(ctx.online_clock.trace)
                secure_matmul(_shared(ctx, (16, 24), seed), w, label="p")
            monkeypatch.undo()
            assert set(kept[0]) == {"F", "B", "Z"}
            assert set(device_table(ctx, 0)) == set(kept[0].values())
            starts[pipeline] = _server_steps(ctx, start)["D=A"].start
        assert starts[True] < 1.0 <= starts[False]

    def test_where_d_is_resident_nothing_uploads_a(self):
        """A static left operand keeps ``E`` and ``D``; where its share
        row is gone the next product has no reader for ``A_i``."""
        ctx = _ctx(trace=True)
        x = _shared(ctx, (16, 24), 1).mark_static()
        runs = []
        for seed in (2, 3):
            ctx.begin_batch()
            start = len(ctx.online_clock.trace)
            y = _shared(ctx, (24, 8), seed)
            out = secure_matmul(x, y, label="p")
            np.testing.assert_allclose(out.decode(), x.decode() @ y.decode(), atol=TRAIN_TOL)
            runs.append(list(_server_steps(ctx, start, party=1)))
            ctx.rows.drop(x.uid)  # the share row goes, E and D stay
        assert runs[0][:6] == ["h2d:E", "h2d:A", "D=A-E", "h2d:F", "h2d:B", "[D,E]@[F,B]"]
        assert runs[1][:3] == ["h2d:F", "h2d:B", "[D,E]@[F,B]"] and "D=A-E" not in runs[1]
        rows = {what for what, _uid in device_table(ctx, 1)}
        assert rows == {"open", "lead", "Z"}
        z = 8 * 16 * 8
        assert ctx.server_gpu[1].pool.allocated_bytes == 2 * x.nbytes + z

    def test_a_step_that_does_not_fit_names_the_device(self):
        small = replace(V100_SPEC, memory_bytes=20_000)
        ctx = _ctx(gpu_spec=small)
        layers = _dense_layers(ctx)
        _train_step(ctx, layers, 1, rows=8)  # one product's operands fit
        with pytest.raises(DeviceError, match=r"s0gpu: out of device memory"):
            for seed in (2, 3):
                _train_step(ctx, layers, seed, rows=64)

    @pytest.mark.parametrize("backend", ["beaver2pc", "rep3"])
    def test_a_product_that_does_not_fit_names_the_device(self, backend):
        """A product's transient uploads and its GEMM output take device
        memory too: 64x32 @ 32x16 does not fit a 20 000-byte GPU."""
        ctx = _ctx(backend=backend, gpu_spec=replace(V100_SPEC, memory_bytes=20_000))
        x, y = _shared(ctx, (64, 32), 0), _shared(ctx, (32, 16), 1)
        with pytest.raises(DeviceError, match=r"s0gpu: out of device memory"):
            secure_matmul(x, y, label="p")


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
            held.append((_device_bytes(ctx), sorted(what for what, _uid in device_table(ctx, 0))))
        assert held[0::2] == [held[0]] * 4 and held[1::2] == [held[1]] * 4
        # every re-deal draws new masks and triplets; what outlives a step
        # is still W's one F and one share and the three streams' Z
        assert held[1][1] == ["Z", "Z", "Z", "open", "share"]
        w_bytes = 8 * 12 * 8
        assert held[1][0] == [2 * w_bytes + 8 * (16 * 8 + 12 * 8 + 16 * 12)] * 2

    def test_a_weight_update_frees_the_old_f_at_once(self):
        ctx, w = self._linked()
        (key,) = [key for key in device_table(ctx, 0) if key[0] == "open" and key[1] in openings(ctx)
                  and openings(ctx)[key[1]].value == w.uid]
        old = [device_table(ctx, i)[key][0] for i in (0, 1)]
        ctx.begin_batch()
        before = _device_bytes(ctx)
        updated = (w - w.mul_public(0.5)).mark_static()
        secure_matmul(_shared(ctx, (16, 12), 9), updated, label="fwd")
        assert all(buf.freed for buf in old)
        assert not device_table(ctx, 0)[key][0].freed  # same mask, the new value
        ctx.begin_batch()
        assert _device_bytes(ctx) == before

    def test_a_weight_update_frees_the_old_share_row_at_once(self):
        """A layer's update replaces its weight: the old value is gone
        with the tensor, so its share, ``F`` and ``D`` rows go before any
        product reads the new one — the mask table keeps the bare fact
        that the mask opened it this step."""
        ctx, w = self._linked()
        old_uid = w.uid
        rows = _weight_rows(ctx, {old_uid})
        assert {what for what, _uid in rows} == {"share", "open"}
        old = [device_table(ctx, i)[key][0] for i in (0, 1) for key in rows]
        before = _device_bytes(ctx)
        w = (w - w.mul_public(0.5)).mark_static()
        assert all(buf.freed for buf in old) and _weight_rows(ctx, {old_uid}) == set()
        assert _device_bytes(ctx) == [held - sum(buf.nbytes for buf in old) // 2 for held in before]
        (row,) = [row for row in openings(ctx).values() if row.value == old_uid]
        assert row.epoch == ctx._batch_epoch and row.held is None and row.lifetime == "step"
        self._step(ctx, w, 3)
        assert not any(row.value == old_uid for row in openings(ctx).values())
        assert {uid for what, uid in device_table(ctx, 0) if what == "share"} >= {w.uid}

    def test_a_redealt_stream_frees_its_z_at_once(self):
        ctx, w = self._linked()
        z_uid = ctx._matrix_triplets["fwd"].uid
        old = device_table(ctx, 0)[("Z", z_uid)][0]
        ctx.begin_batch()
        ctx.get_matrix_triplet("fwd", (10, 12), (12, 8))  # a ragged batch: new triplet
        assert old.freed and ("Z", z_uid) not in device_table(ctx, 0)

    @pytest.mark.parametrize("restart", ["reset_mask_reuse", "respawn_party"])
    def test_a_restart_frees_every_row(self, restart):
        ctx, w = self._linked()
        assert min(_device_bytes(ctx)) > 0
        if restart == "respawn_party":
            respawn_party(ctx, "server1")
        else:
            ctx.reset_mask_reuse()
        assert _device_bytes(ctx) == [0, 0] and device_table(ctx, 0) == device_table(ctx, 1) == {}
        self._step(ctx, w, 3)  # and the next step runs on cold tables

    @pytest.mark.parametrize("driver", ["inference retry", "trainer recovery"])
    def test_a_crashed_party_comes_back_to_empty_tables(self, driver, monkeypatch):
        """Both drivers recover through ``respawn_party``: at that moment
        both pools read 0, and the replayed batches give the clean bits."""
        seen = []
        reset = SecureContext.reset_mask_reuse

        def spy(ctx):
            reset(ctx)
            seen.append((_device_bytes(ctx), [len(device_table(ctx, i)) for i in (0, 1)]))

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
        old = dense.weight.uid
        dense.weight = (dense.weight - dense.weight.mul_public(0.25)).mark_static()
        assert _weight_rows(self.ctx, {old}) == set()  # the old value is gone
        self.just_reset = False

    @rule()
    def drop_model(self):
        """A deployment replaces its model: none of the old one's weights
        may keep a row."""
        old = {p.uid for p in self.model.parameters() if p.static}
        self.model = SecureMLP(self.ctx, 12, hidden=(8,), n_out=4)
        self.trainer = SecureTrainer(self.ctx, self.model, lr=0.0625)
        assert _weight_rows(self.ctx, old) == set()
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
        # streams (each weight's share is one of the step's B): nothing
        # accumulates over a sequence, a dropped model included
        one_value = 8 * max(ROWS * 12, 12 * 8)
        assert max(_device_bytes(self.ctx)) <= (5 * 3 + 5 * 2) * one_value
        for party in (0, 1):
            rows = device_table(self.ctx, party)
            assert sum(buf.nbytes for buf, _task in rows.values()) == (
                self.ctx.server_gpu[party].pool.allocated_bytes
            )
            assert not any(buf.freed for buf, _task in rows.values())


ResidencyMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=15, deadline=None
)
TestResidencyMachine = ResidencyMachine.TestCase


# ------------------------------------------------------------------ rep3


def _rep3_ctx(**kw):
    return _ctx(backend="rep3", **kw)


def _watch_steps(ctx, monkeypatch):
    """``[(party, task label)]`` of every step each server's GPU and CPU
    places from here on (uploads, the GEMM, the right operand's sum)."""
    log = []
    for party in range(ctx.n_parties):
        for unit in (ctx.server_gpu[party], ctx.server_cpu[party]):
            def placed(op, size, deps=(), label="step", _real=unit.run_step, _p=party, **kw):
                log.append((_p, label))
                return _real(op, size, deps, label, **kw)

            monkeypatch.setattr(unit, "run_step", placed)
    return log


def _labels(log, party=0):
    return [label for p, label in log if p == party]


def _per_step(ctx, monkeypatch):
    """The ``_watch_steps`` log, one list per online step."""
    log, steps = _watch_steps(ctx, monkeypatch), []
    begin = ctx.begin_batch

    def begin_batch():
        steps.append(len(log))
        begin()

    monkeypatch.setattr(ctx, "begin_batch", begin_batch)
    return lambda: [log[lo:hi] for lo, hi in zip(steps, [*steps[1:], len(log)])]


class TestRep3:
    @pytest.mark.parametrize("model", CONFORMANCE_MODELS)
    def test_every_model_trains_to_the_bits_of_a_run_that_uploads_everything(
        self, model, monkeypatch
    ):
        _trains_to_the_bits_of_a_run_that_uploads_everything(model, "rep3", monkeypatch)

    def test_a_warm_predict_batch_uploads_no_static_weight(self, monkeypatch):
        """From the second batch on, every weight's pair is on the GPUs and
        its ``y_i + y_{i+1}`` formed: no ``*/fwd:h2d:R``, no ``*/fwd:ysum``."""
        ctx = _rep3_ctx()
        model = SecureMLP(ctx, 32, hidden=(16, 16), n_out=4)
        steps = _per_step(ctx, monkeypatch)
        x = 0.5 * np.random.default_rng(0).standard_normal((3 * 16, 32))
        secure_predict(ctx, model, x, batch_size=16)
        cold, *warm = steps()
        layers = ("mlp0", "mlp1", "mlp2")
        assert len(warm) == 2
        for party in range(3):
            labels = _labels(cold, party)
            assert {f"{n}/fwd:{step}" for n in layers for step in ("h2d:R", "ysum")} <= set(labels)
            for step in warm:
                labels = _labels(step, party)
                assert {f"{n}/fwd:h2d:L" for n in layers} <= set(labels)  # the activations
                assert not [lb for lb in labels if lb.endswith((":h2d:R", ":ysum"))]
        # nobody asks for an activation twice: only the weights stay
        weights = {layer.weight.uid for layer in model.layers if hasattr(layer, "weight")}
        for party in range(3):
            assert {uid for _what, uid in device_table(ctx, party)} == weights

    def test_dw_and_dx_read_what_the_step_uploaded(self, monkeypatch):
        """A value's parts cross PCIe once per step: ``dX`` reads ``W``'s
        pair and formed sum, ``dW`` reads ``X``'s (``H``'s) pair and the
        delta's own share ``dX`` uploaded — only the delta's sum is new.
        The first step learns who asks again: its ``dW`` uploads both."""
        ctx = _rep3_ctx()
        layers = _dense_layers(ctx)
        steps = _per_step(ctx, monkeypatch)
        uploaded = []
        for seed in (1, 2):
            before = ctx.server_gpu[0].h2d_bytes
            _train_step(ctx, layers, seed)
            uploaded.append(ctx.server_gpu[0].h2d_bytes - before)
        for step, first in zip(steps(), (True, False)):
            by_op = {}
            for label in _labels(step):
                op, _, name = label.partition(":")
                if name in ("ysum", "h2d:L", "h2d:R", "gemm"):
                    by_op.setdefault(op, []).append(name)
            dw = ["ysum", "h2d:L", "h2d:R", "gemm"] if first else ["ysum", "h2d:R", "gemm"]
            assert by_op == {
                "d0/fwd": ["ysum", "h2d:L", "h2d:R", "gemm"],
                "d1/fwd": ["ysum", "h2d:L", "h2d:R", "gemm"],
                "d1/dX": ["h2d:L", "gemm"],
                "d1/dW": dw,
                "d0/dW": dw,
            }
        rows, delta = 16, layers[1].out_features
        # in parts of a value: X, H, the delta (and its sum), the hidden
        # delta, and the step's two new weights
        parts = 2 * rows * 12 + 2 * rows * 8 + 3 * rows * delta + 2 * rows * 8
        assert uploaded[1] == 8 * (parts + 2 * (12 * 8 + 8 * delta))

    def test_shares_and_weights_equal_a_run_that_uploads_everything_again(self, monkeypatch):
        def run():
            ctx = _rep3_ctx()
            layers = _dense_layers(ctx)
            grads = [_train_step(ctx, layers, seed) for seed in (1, 2, 3)]
            secure_matmul(_shared(ctx, (16, 12), 9), layers[0].weight, label="d0/fwd")
            weights = [layer.weight for layer in layers]
            return grads, weights, ctx.server_gpu[0].h2d_bytes, ctx.online_clock.now()

        grads, weights, uploaded, online_s = run()
        never_reuse(monkeypatch, every_product=True)
        ref_grads, ref_weights, ref_uploaded, ref_online_s = run()
        for got_step, want_step in zip([*grads, weights], [*ref_grads, ref_weights]):
            for got, want in zip(got_step, want_step):
                for party in range(3):
                    np.testing.assert_array_equal(got.shares[party], want.shares[party])
        assert uploaded < ref_uploaded and online_s < ref_online_s

    def test_a_weight_update_frees_the_old_rows_at_once(self):
        ctx = _rep3_ctx()
        w = _shared(ctx, (12, 8), 2).mark_static()
        for seed in (1, 2):
            ctx.begin_batch()
            secure_matmul(_shared(ctx, (16, 12), seed), w, label="fwd")
        old = [device_table(ctx, i)[("sum", w.uid)][0] for i in range(3)]
        ctx.begin_batch()
        assert _device_bytes(ctx) == [2 * 8 * 12 * 8] * 3  # W's sum and share
        updated = (w - w.mul_public(0.5)).mark_static()
        secure_matmul(_shared(ctx, (16, 12), 9), updated, label="fwd")
        assert all(buf.freed for buf in old)
        ctx.begin_batch()
        assert _device_bytes(ctx) == [2 * 8 * 12 * 8] * 3
        assert {uid for _what, uid in device_table(ctx, 2)} == {updated.uid}

    def test_without_step_boundaries_only_static_rows_stay(self):
        ctx = _rep3_ctx()
        x, w = _shared(ctx, (16, 12), 1), _shared(ctx, (12, 8), 2).mark_static()
        for seed in (3, 4):
            d = _shared(ctx, (16, 8), seed)
            secure_matmul(x, w, label="fwd")
            secure_matmul(x.T, d, label="dW")
        assert sorted(device_table(ctx, 1)) == [("share", w.uid), ("sum", w.uid)]

    @pytest.mark.parametrize("restart", ["reset_mask_reuse", "respawn_party"])
    def test_a_restart_frees_every_row_on_all_three_servers(self, restart):
        ctx = _rep3_ctx()
        _train_step(ctx, _dense_layers(ctx), 1)
        assert min(_device_bytes(ctx)) > 0
        if restart == "respawn_party":
            respawn_party(ctx, "server2")
        else:
            ctx.reset_mask_reuse()
        assert _device_bytes(ctx) == [0, 0, 0]
        assert not any(device_table(ctx, i) for i in range(3))


class Rep3ResidencyMachine(ResidencyMachine):
    """The same sequences on ``rep3``: three device tables, each party's
    pair of every value, and a restart of any of the three servers."""

    def __init__(self):
        RuleBasedStateMachine.__init__(self)
        self.ctx = _rep3_ctx()
        self.model = SecureMLP(self.ctx, 12, hidden=(8,), n_out=4)
        self.trainer = SecureTrainer(self.ctx, self.model, lr=0.0625)
        self.rng = np.random.default_rng(0)
        self.just_reset = False

    @rule(party=st.sampled_from(["server0", "server1", "server2"]))
    def respawn(self, party):
        respawn_party(self.ctx, party, charge_restart=False)
        self.just_reset = True

    @invariant()
    def restart_leaves_both_pools_empty(self):
        if self.just_reset:
            assert _device_bytes(self.ctx) == [0, 0, 0]

    @invariant()
    def device_memory_is_bounded_by_one_step_and_the_static_rows(self):
        # a training step's parts: the pairs of X, H, the delta and the
        # hidden delta (the delta's sum too), each at most ROWS x 12 or
        # 12 x 8 — plus each weight's sum and share, once (an updated or
        # dropped weight's rows go with the tensor)
        one_part = 8 * max(ROWS * 12, 12 * 8)
        assert max(_device_bytes(self.ctx)) <= (2 + 2 + 3 + 2 + 2 * 2) * one_part
        for party in range(3):
            rows = device_table(self.ctx, party)
            assert sum(buf.nbytes for buf, _task in rows.values()) == (
                self.ctx.server_gpu[party].pool.allocated_bytes
            )
            assert not any(buf.freed for buf, _task in rows.values())


Rep3ResidencyMachine.TestCase.settings = ResidencyMachine.TestCase.settings
TestRep3ResidencyMachine = Rep3ResidencyMachine.TestCase
