"""Non-secure baseline models in plain floating point, with timing.

These are the "original machine learning tasks" of Tables 1 and 2: the
same six architectures as :mod:`repro.core.models`, trained directly on
NumPy float64 arrays, with every GEMM/elementwise/RNG step charged to a
:class:`~repro.simgpu.clock.SimClock` either at CPU rates (Table 1's
baseline) or at simulated-GPU rates with PCIe transfers (Table 2's "GPU
time" column; weights stay device-resident, inputs stream per batch —
the standard non-secure GPU training pattern).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from repro.simgpu.clock import SimClock
from repro.simgpu.cost import CPUSpec, DeviceSpec, V100_SPEC, XEON_E5_2670V3_SPEC
from repro.simgpu.kernels import col2im, conv_output_size, im2col
from repro.util.errors import ConfigError


class PlainTimer:
    """Charges plain-ML work to one device's timeline."""

    def __init__(
        self,
        device: Literal["cpu", "gpu"] = "cpu",
        *,
        cpu_spec: CPUSpec = XEON_E5_2670V3_SPEC,
        gpu_spec: DeviceSpec = V100_SPEC,
        tensor_core: bool = False,
        cpu_parallel: bool = False,
    ):
        self.device = device
        self.cpu_spec = cpu_spec
        self.gpu_spec = gpu_spec
        self.tensor_core = tensor_core
        self.cpu_parallel = cpu_parallel
        # Per-training-step framework overhead (Python dispatch, graph
        # bookkeeping, optimiser step) — the paper's GPU baselines are
        # TensorFlow/PyTorch-era frameworks whose measured MNIST step
        # times (Table 2: ~4 ms/batch) are overhead-, not compute-bound.
        self.step_overhead_s = 1e-3
        self.clock = SimClock()
        self.clock.set_tracing(False)
        self.clock.add_resource("compute")
        self.clock.add_resource("pcie")

    def reset(self) -> None:
        self.clock = SimClock()
        self.clock.set_tracing(False)
        self.clock.add_resource("compute")
        self.clock.add_resource("pcie")

    @property
    def seconds(self) -> float:
        return self.clock.now()

    def gemm(self, m: int, k: int, n: int) -> None:
        if self.device == "gpu":
            dur = self.gpu_spec.gemm_seconds(m, k, n, tensor_core=self.tensor_core)
        else:
            dur = self.cpu_spec.gemm_seconds(m, k, n)
        self.clock.run("compute", dur, label="gemm")

    def elementwise(self, nbytes: int) -> None:
        if self.device == "gpu":
            dur = self.gpu_spec.elementwise_seconds(nbytes)
        else:
            dur = self.cpu_spec.elementwise_seconds(nbytes, parallel=self.cpu_parallel)
        self.clock.run("compute", dur, label="elementwise")

    def transfer(self, nbytes: int) -> None:
        """PCIe streaming (no-op for the CPU device)."""
        if self.device == "gpu":
            self.clock.run("pcie", self.gpu_spec.transfer_seconds(nbytes), label="pcie")


class PlainLayer:
    def forward(self, x: np.ndarray, timer: PlainTimer, *, training: bool = True) -> np.ndarray:
        raise NotImplementedError

    #: whether the layer has weights — drives PlainModel's backward stop rule
    trainable = False

    def backward(
        self, delta: np.ndarray, timer: PlainTimer, *, input_grad: bool = True
    ) -> np.ndarray | None:
        """Same contract as ``SecureLayer.backward``: with
        ``input_grad=False`` the input gradient is neither computed nor
        charged to the timer, and ``None`` is returned."""
        raise NotImplementedError

    def apply_gradients(self, lr: float) -> None:
        pass


class PlainDense(PlainLayer):
    trainable = True

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        scale = 1.0 / np.sqrt(in_features)
        self.w = rng.uniform(-scale, scale, size=(in_features, out_features))
        self.b = np.zeros((1, out_features))
        self._x = None
        self._gw = None
        self._gb = None

    def forward(self, x, timer, *, training=True):
        if training:
            self._x = x
        timer.gemm(x.shape[0], x.shape[1], self.w.shape[1])
        return x @ self.w + self.b

    def backward(self, delta, timer, *, input_grad=True):
        batch = self._x.shape[0]
        timer.gemm(self.w.shape[0], batch, self.w.shape[1])
        self._gw = self._x.T @ delta / batch
        self._gb = delta.mean(axis=0, keepdims=True)
        if not input_grad:
            return None
        timer.gemm(batch, self.w.shape[1], self.w.shape[0])
        return delta @ self.w.T

    def apply_gradients(self, lr):
        self.w -= lr * self._gw
        self.b -= lr * self._gb


class PlainActivation(PlainLayer):
    def __init__(self, kind: str = "relu"):
        if kind not in ("relu", "piecewise"):
            raise ConfigError(f"unknown activation {kind!r}")
        self.kind = kind
        self._mask = None

    def forward(self, x, timer, *, training=True):
        timer.elementwise(2 * x.nbytes)
        if self.kind == "relu":
            mask = (x >= 0.0).astype(x.dtype)
            out = x * mask
        else:
            mask = ((x >= -0.5) & (x < 0.5)).astype(x.dtype)
            out = np.clip(x + 0.5, 0.0, 1.0)
        if training:
            self._mask = mask
        return out

    def backward(self, delta, timer, *, input_grad=True):
        if not input_grad:
            return None
        timer.elementwise(2 * delta.nbytes)
        return delta * self._mask


class PlainConv2D(PlainLayer):
    trainable = True

    def __init__(
        self,
        in_shape: tuple[int, int, int],
        out_channels: int,
        kernel: int,
        rng: np.random.Generator,
        *,
        stride: int = 1,
    ):
        self.in_shape = tuple(in_shape)
        self.kernel = kernel
        self.stride = stride
        self.out_channels = out_channels
        h, w, c = in_shape
        self.out_h, self.out_w = conv_output_size(h, w, kernel, kernel, stride)
        fan_in = kernel * kernel * c
        self.w = rng.uniform(-1, 1, size=(fan_in, out_channels)) / np.sqrt(fan_in)
        self._cols = None
        self._batch = 0

    def forward(self, x, timer, *, training=True):
        n = x.shape[0]
        h, w, c = self.in_shape
        cols = im2col(x.reshape(n, h, w, c), self.kernel, self.kernel, self.stride)
        timer.elementwise(x.nbytes + cols.nbytes)
        if training:
            self._cols = cols
            self._batch = n
        timer.gemm(cols.shape[0], cols.shape[1], self.out_channels)
        out = cols @ self.w
        return out.reshape(n, self.out_h * self.out_w * self.out_channels)

    def backward(self, delta, timer, *, input_grad=True):
        n = self._batch
        d2 = delta.reshape(n * self.out_h * self.out_w, self.out_channels)
        timer.gemm(self._cols.shape[1], d2.shape[0], self.out_channels)
        self._gw = self._cols.T @ d2 / n
        if not input_grad:
            return None
        timer.gemm(d2.shape[0], self.out_channels, self.w.shape[0])
        dcols = d2 @ self.w.T
        h, w, c = self.in_shape
        dx = col2im(dcols, (n, h, w, c), self.kernel, self.kernel, self.stride)
        timer.elementwise(dcols.nbytes + dx.nbytes)
        return dx.reshape(n, -1)

    def apply_gradients(self, lr):
        self.w -= lr * self._gw


@dataclass
class PlainReport:
    """Cost/progress accounting for a plain run."""

    batches: int = 0
    samples: int = 0
    seconds: float = 0.0
    losses: list = field(default_factory=list)


class PlainModel:
    def __init__(self):
        self.layers: list[PlainLayer] = []

    def forward(self, x, timer, *, training=True):
        for layer in self.layers:
            x = layer.forward(x, timer, training=training)
        return x

    def loss_delta(self, pred, y):
        return pred - y

    def train_batch(self, x, y, lr, timer):
        pred = self.forward(x, timer, training=True)
        delta = self.loss_delta(pred, y)
        # SecureModel.backward's stop rule: no input gradient for the
        # first trainable layer, nothing below it is visited.
        stop = next(
            (i for i, layer in enumerate(self.layers) if layer.trainable), len(self.layers)
        )
        for i in range(len(self.layers) - 1, stop - 1, -1):
            delta = self.layers[i].backward(delta, timer, input_grad=i > stop)
        for layer in self.layers:
            layer.apply_gradients(lr)
        return pred


class PlainMLP(PlainModel):
    def __init__(self, input_dim, hidden=(128, 64), n_out=10, *, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        dims = [input_dim, *hidden, n_out]
        for li, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
            self.layers.append(PlainDense(a, b, rng))
            if li < len(dims) - 2:
                self.layers.append(PlainActivation("relu"))


class PlainCNN(PlainModel):
    def __init__(
        self,
        image_shape,
        *,
        conv_channels=8,
        hidden=64,
        n_out=10,
        kernel=5,
        conv_stride=1,
        seed=0,
    ):
        super().__init__()
        rng = np.random.default_rng(seed)
        conv = PlainConv2D(image_shape, conv_channels, kernel, rng, stride=conv_stride)
        flat = conv.out_h * conv.out_w * conv_channels
        self.layers = [
            conv,
            PlainActivation("relu"),
            PlainDense(flat, hidden, rng),
            PlainActivation("relu"),
            PlainDense(hidden, n_out, rng),
        ]


class PlainLinearRegression(PlainModel):
    def __init__(self, input_dim, n_out=1, *, seed=0):
        super().__init__()
        self.layers = [PlainDense(input_dim, n_out, np.random.default_rng(seed))]


class PlainLogisticRegression(PlainModel):
    def __init__(self, input_dim, n_out=1, *, seed=0):
        super().__init__()
        self.layers = [
            PlainDense(input_dim, n_out, np.random.default_rng(seed)),
            PlainActivation("piecewise"),
        ]


class PlainSVM(PlainModel):
    """Linear SVM via hinge subgradient (the secure model's twin)."""

    def __init__(self, input_dim, *, reg=1e-3, seed=0):
        super().__init__()
        self.dense = PlainDense(input_dim, 1, np.random.default_rng(seed))
        self.layers = [self.dense]
        self.reg = reg

    def train_batch(self, x, y, lr, timer):
        scores = self.dense.forward(x, timer, training=True)
        margin = 1.0 - y * scores
        active = (margin >= 0).astype(x.dtype)
        timer.elementwise(3 * scores.nbytes)
        coeff = -y * active
        batch = x.shape[0]
        timer.gemm(x.shape[1], batch, 1)
        gw = x.T @ coeff / batch + self.reg * self.dense.w
        gb = coeff.mean(axis=0, keepdims=True)
        self.dense.w -= lr * gw
        self.dense.b -= lr * gb
        return scores


class PlainRNNCell:
    def __init__(self, in_features, hidden, rng):
        sx, sh = 1 / np.sqrt(in_features), 1 / np.sqrt(hidden)
        self.wx = rng.uniform(-sx, sx, size=(in_features, hidden))
        self.wh = rng.uniform(-sh, sh, size=(hidden, hidden))
        self.b = np.zeros((1, hidden))


class PlainRNN(PlainModel):
    def __init__(self, n_steps, step_features, hidden=64, n_out=10, *, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.n_steps = n_steps
        self.step_features = step_features
        self.hidden = hidden
        self.cell = PlainRNNCell(step_features, hidden, rng)
        self.readout = PlainDense(hidden, n_out, rng)

    def forward(self, x, timer, *, training=True):
        batch = x.shape[0]
        h = np.zeros((batch, self.hidden))
        self._tape = []
        for t in range(self.n_steps):
            xt = x[:, t * self.step_features : (t + 1) * self.step_features]
            timer.gemm(batch, self.step_features, self.hidden)
            timer.gemm(batch, self.hidden, self.hidden)
            pre = xt @ self.cell.wx + h @ self.cell.wh + self.cell.b
            mask = (pre >= 0).astype(x.dtype)
            timer.elementwise(2 * pre.nbytes)
            h_new = pre * mask
            if training:
                self._tape.append((xt, h, mask))
            h = h_new
        return self.readout.forward(h, timer, training=training)

    def train_batch(self, x, y, lr, timer):
        pred = self.forward(x, timer, training=True)
        delta = self.loss_delta(pred, y)
        delta_h = self.readout.backward(delta, timer)
        batch = x.shape[0]
        gwx = np.zeros_like(self.cell.wx)
        gwh = np.zeros_like(self.cell.wh)
        gb = np.zeros_like(self.cell.b)
        d = delta_h
        for t, (xt, h_prev, mask) in enumerate(reversed(self._tape)):
            d = d * mask
            timer.elementwise(2 * d.nbytes)
            timer.gemm(xt.shape[1], batch, self.hidden)
            timer.gemm(self.hidden, batch, self.hidden)
            gwx += xt.T @ d / batch
            gwh += h_prev.T @ d / batch
            gb += d.mean(axis=0, keepdims=True)
            if t + 1 < len(self._tape):
                timer.gemm(batch, self.hidden, self.hidden)
                d = d @ self.cell.wh.T
        self.cell.wx -= lr * gwx
        self.cell.wh -= lr * gwh
        self.cell.b -= lr * gb
        self.readout.apply_gradients(lr)
        return pred


class PlainAttentionBlock(PlainLayer):
    """Float twin of :class:`repro.core.attention.SecureAttentionBlock`.

    Identical math, including the *approximate* softmax recipe
    (:func:`repro.mpc.softmax.softmax_reference`) — so the secure/plain
    difference measured by conformance is pure fixed-point noise, not
    the softmax approximation itself.
    """

    trainable = True

    def __init__(self, seq_len: int, d_model: int, rng: np.random.Generator):
        self.seq_len = seq_len
        self.d_model = d_model
        scale = 1.0 / np.sqrt(d_model)
        self.wq = rng.uniform(-scale, scale, size=(d_model, d_model))
        self.wk = rng.uniform(-scale, scale, size=(d_model, d_model))
        self.wv = rng.uniform(-scale, scale, size=(d_model, d_model))
        self.wo = rng.uniform(-scale, scale, size=(d_model, d_model))
        self._tape = None

    def forward(self, x, timer, *, training=True):
        from repro.mpc.softmax import softmax_reference

        b, (s, d) = x.shape[0], (self.seq_len, self.d_model)
        x2 = x.reshape(b * s, d)
        for _ in range(3):
            timer.gemm(b * s, d, d)
        q = (x2 @ self.wq).reshape(b, s, d)
        k = (x2 @ self.wk).reshape(b, s, d)
        v = (x2 @ self.wv).reshape(b, s, d)
        timer.elementwise(2 * q.nbytes)
        scores = np.einsum("bid,bjd->bij", q, k) / np.sqrt(d)
        attn = softmax_reference(scores.reshape(b * s, s)).reshape(b, s, s)
        timer.elementwise(2 * v.nbytes)
        context = np.einsum("bij,bjd->bid", attn, v).reshape(b * s, d)
        timer.gemm(b * s, d, d)
        o2 = context @ self.wo
        out = o2.reshape(b, s, d).mean(axis=1)
        if training:
            self._tape = (x2, q, k, v, attn, context)
        return out

    def backward(self, delta, timer, *, input_grad=True):
        x2, q, k, v, attn, context = self._tape
        b, (s, d) = delta.shape[0], (self.seq_len, self.d_model)
        do2 = np.repeat(delta / s, s, axis=0)
        timer.gemm(d, b * s, d)
        self._gwo = context.T @ do2 / b
        timer.gemm(b * s, d, d)
        dc = (do2 @ self.wo.T).reshape(b, s, d)
        timer.elementwise(4 * dc.nbytes)
        da = np.einsum("bid,bjd->bij", dc, v)
        dv = np.einsum("bij,bid->bjd", attn, dc)
        ds = attn * (da - (attn * da).sum(axis=2, keepdims=True)) / np.sqrt(d)
        timer.elementwise(4 * ds.nbytes)
        dq = np.einsum("bij,bjd->bid", ds, k).reshape(b * s, d)
        dk = np.einsum("bij,bid->bjd", ds, q).reshape(b * s, d)
        dv = dv.reshape(b * s, d)
        for _ in range(3):
            timer.gemm(d, b * s, d)
        self._gwq = x2.T @ dq / b
        self._gwk = x2.T @ dk / b
        self._gwv = x2.T @ dv / b
        if not input_grad:
            return None
        for _ in range(3):
            timer.gemm(b * s, d, d)
        dx2 = dq @ self.wq.T + dk @ self.wk.T + dv @ self.wv.T
        return dx2.reshape(b, s * d)

    def apply_gradients(self, lr):
        self.wq -= lr * self._gwq
        self.wk -= lr * self._gwk
        self.wv -= lr * self._gwv
        self.wo -= lr * self._gwo


class PlainAttention(PlainModel):
    def __init__(self, seq_len, d_model, *, n_out=3, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.block = PlainAttentionBlock(seq_len, d_model, rng)
        self.readout = PlainDense(d_model, n_out, rng)
        self.layers = [self.block, self.readout]


class PlainEmbedding(PlainLayer):
    """Float twin of the oblivious embedding lookup (dense, no bias)."""

    trainable = True

    def __init__(self, vocab: int, emb_dim: int, rng: np.random.Generator):
        scale = 1.0 / np.sqrt(vocab)
        self.w = rng.uniform(-scale, scale, size=(vocab, emb_dim))
        self._x = None

    def forward(self, x, timer, *, training=True):
        if training:
            self._x = x
        timer.gemm(x.shape[0], x.shape[1], self.w.shape[1])
        return x @ self.w

    def backward(self, delta, timer, *, input_grad=True):
        batch = self._x.shape[0]
        timer.gemm(self.w.shape[0], batch, self.w.shape[1])
        self._gw = self._x.T @ delta / batch
        if not input_grad:
            return None
        timer.gemm(batch, self.w.shape[1], self.w.shape[0])
        return delta @ self.w.T

    def apply_gradients(self, lr):
        self.w -= lr * self._gw


class PlainRecsys(PlainModel):
    def __init__(self, vocab, emb_dim, *, n_out=3, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.layers = [
            PlainEmbedding(vocab, emb_dim, rng),
            PlainActivation("relu"),
            PlainDense(emb_dim, n_out, rng),
        ]


class PlainTrainer:
    """Batch loop + timing for the plain models."""

    def __init__(self, model: PlainModel, timer: PlainTimer, *, lr: float = 0.125):
        self.model = model
        self.timer = timer
        self.lr = lr

    def train(self, x, y, *, epochs=1, batch_size=128, max_batches=None) -> PlainReport:
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        report = PlainReport()
        t0 = self.timer.seconds
        done = False
        for _ in range(epochs):
            if done:
                break
            for lo in range(0, x.shape[0] - batch_size + 1, batch_size):
                xb, yb = x[lo : lo + batch_size], y[lo : lo + batch_size]
                # batch assembly + loss bookkeeping + framework step overhead
                self.timer.elementwise(2 * (xb.nbytes + yb.nbytes))
                self.timer.clock.run("compute", self.timer.step_overhead_s, label="step")
                self.timer.transfer(xb.nbytes + yb.nbytes)
                pred = self.model.train_batch(xb, yb, self.lr, self.timer)
                report.batches += 1
                report.samples += batch_size
                report.losses.append(float(np.mean((pred - yb) ** 2)))
                if max_batches is not None and report.batches >= max_batches:
                    done = True
                    break
        report.seconds = self.timer.seconds - t0
        return report

    def predict(self, x, *, batch_size=128, max_batches=None) -> tuple[np.ndarray, float]:
        x = np.asarray(x, dtype=np.float64)
        outs = []
        t0 = self.timer.seconds
        batches = 0
        for lo in range(0, x.shape[0] - batch_size + 1, batch_size):
            xb = x[lo : lo + batch_size]
            self.timer.clock.run("compute", self.timer.step_overhead_s, label="step")
            self.timer.transfer(xb.nbytes)
            outs.append(self.model.forward(xb, self.timer, training=False))
            batches += 1
            if max_batches is not None and batches >= max_batches:
                break
        return np.concatenate(outs, axis=0), self.timer.seconds - t0
