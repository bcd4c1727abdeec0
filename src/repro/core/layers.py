"""Secure neural-network layers over the ops layer.

Each layer implements ``forward`` and ``backward`` on
:class:`~repro.core.tensor.SharedTensor` values and keeps whatever it
needs for the backward pass.  The structure mirrors the paper's Fig. 6:
forward = reconstruct + GPU operation, backward = reconstruct + GPU
operation, per layer, with the dependency tasks carried inside the
tensors so the double pipeline can overlap steps across layers.

Weight initialisation happens client-side (the client owns the model
in the two-party setting) and is charged to the offline phase like any
other sharing.
"""

from __future__ import annotations

import numpy as np

from repro.core import ops
from repro.core.tensor import SharedTensor
from repro.mpc.pool import TripletRequest, hadamard_stream, matmul_stream
from repro.simgpu.kernels import col2im, conv_output_size, im2col
from repro.util.errors import ProtocolError, ShapeError


class SecureLayer:
    """Base class: parameter bookkeeping + the forward/backward contract."""

    def forward(self, x: SharedTensor, *, training: bool = True) -> SharedTensor:
        raise NotImplementedError

    def backward(
        self, delta: SharedTensor, *, input_grad: bool = True
    ) -> SharedTensor | None:
        """Accumulate parameter gradients; return the input gradient.

        ``input_grad=False`` means nobody reads the input gradient (no
        earlier layer has parameters — see :meth:`SecureModel.backward`):
        the layer skips every secure product that only feeds it and
        returns ``None``.  Parameter gradients are issued first, so they
        consume the same triplets either way.
        """
        raise NotImplementedError

    def apply_gradients(self, lr: float) -> None:
        """Default: no parameters."""

    def parameters(self) -> list[SharedTensor]:
        return []

    def plan_streams(
        self, in_shape: tuple[int, ...], *, training: bool, input_grad: bool = True
    ) -> tuple[list[TripletRequest], tuple[int, ...]]:
        """(triplet demand of one step, output shape) for a given input.

        Drives the pool's batched offline provisioning: the model walks
        its layers' plans once to learn exactly which triplets one
        forward (+ backward when ``training``) will request;
        ``input_grad`` mirrors :meth:`backward`'s keyword.  The base
        layer demands nothing and passes the shape through.
        """
        return [], in_shape


class SecureDense(SecureLayer):
    """Fully connected layer ``Y = X W + b``."""

    def __init__(self, ctx, in_features: int, out_features: int, *, name: str = "dense"):
        self.ctx = ctx
        self.name = name
        self.in_features = in_features
        self.out_features = out_features
        rng = ctx.seeds.generator(f"init-{name}")
        scale = 1.0 / np.sqrt(in_features)
        self.weight = SharedTensor.from_plain(
            ctx, rng.uniform(-scale, scale, size=(in_features, out_features)), label=f"{name}/W"
        ).mark_static()
        self.bias = SharedTensor.from_plain(
            ctx, np.zeros((1, out_features)), label=f"{name}/b"
        )
        self._x: SharedTensor | None = None
        self._grad_w: SharedTensor | None = None
        self._grad_b: SharedTensor | None = None

    def forward(self, x: SharedTensor, *, training: bool = True) -> SharedTensor:
        if x.shape[1] != self.in_features:
            raise ShapeError(
                f"{self.name}: expected {self.in_features} input features, got {x.shape[1]}"
            )
        if training:
            self._x = x
        y = ops.secure_matmul(x, self.weight, label=f"{self.name}/fwd")
        return y + self.bias.broadcast_rows(y.shape[0])

    def backward(
        self, delta: SharedTensor, *, input_grad: bool = True
    ) -> SharedTensor | None:
        if self._x is None:
            raise ProtocolError(f"{self.name}: backward before forward")
        batch = self._x.shape[0]
        grad_w = ops.secure_matmul(self._x.T, delta, label=f"{self.name}/dW")
        self._grad_w = grad_w.mul_public(1.0 / batch)
        self._grad_b = delta.sum_rows().mul_public(1.0 / batch)
        if not input_grad:
            return None
        return ops.secure_matmul(delta, self.weight.T, label=f"{self.name}/dX")

    def apply_gradients(self, lr: float) -> None:
        if self._grad_w is None or self._grad_b is None:
            raise ProtocolError(f"{self.name}: apply_gradients before backward")
        self.weight = (self.weight - self._grad_w.mul_public(lr)).mark_static()
        self.bias = self.bias - self._grad_b.mul_public(lr)
        self._grad_w = self._grad_b = None

    def parameters(self) -> list[SharedTensor]:
        return [self.weight, self.bias]

    def plan_streams(
        self, in_shape: tuple[int, ...], *, training: bool, input_grad: bool = True
    ) -> tuple[list[TripletRequest], tuple[int, ...]]:
        b = in_shape[0]
        m, n = self.in_features, self.out_features
        reqs = [matmul_stream((b, m), (m, n))]  # fwd
        if training:
            reqs.append(matmul_stream((m, b), (b, n)))  # dW
            if input_grad:
                reqs.append(matmul_stream((b, n), (n, m)))  # dX
        return reqs, (b, n)


class SecureActivation(SecureLayer):
    """Non-linear layer (``relu`` or the paper's Eq. 9 ``piecewise``)."""

    def __init__(self, ctx, kind: str = "relu", *, name: str = "act"):
        if kind not in ("relu", "piecewise"):
            raise ProtocolError(f"unknown activation kind {kind!r}")
        self.ctx = ctx
        self.kind = kind
        self.name = name
        self._mask: SharedTensor | None = None

    def forward(self, x: SharedTensor, *, training: bool = True) -> SharedTensor:
        out, mask = ops.activation(x, kind=self.kind, label=self.name)
        if training:
            self._mask = mask
        return out

    def backward(
        self, delta: SharedTensor, *, input_grad: bool = True
    ) -> SharedTensor | None:
        if not input_grad:
            return None  # parameter-free: the input gradient is all there is
        if self._mask is None:
            raise ProtocolError(f"{self.name}: backward before forward")
        # derivative is the 0/1 mask in both supported kinds, so the
        # chain rule is one fixed x indicator product (single scale).
        return ops.secure_elementwise_mul(delta, self._mask, label=f"{self.name}/bwd")

    def plan_streams(
        self, in_shape: tuple[int, ...], *, training: bool, input_grad: bool = True
    ) -> tuple[list[TripletRequest], tuple[int, ...]]:
        # Both kinds consume one elementwise triplet forward (mask
        # product) and one backward; the comparisons are not pooled.
        if len(in_shape) < 2:
            return [], in_shape
        reqs = [hadamard_stream(in_shape)]
        if training and input_grad:
            reqs.append(hadamard_stream(in_shape))
        return reqs, in_shape


class SecureConv2D(SecureLayer):
    """VALID convolution via im2col + one triplet multiplication.

    Input layout ``(n, h, w, c)``; filters ``(kh*kw*c, out_channels)``.
    The lowering is linear, so each server applies it to its own share
    locally (charged as CPU data movement); the product is a standard
    secure GEMM, which is how ParSecureML protects convolutions.
    """

    def __init__(
        self,
        ctx,
        in_shape: tuple[int, int, int],
        out_channels: int,
        kernel: int = 5,
        *,
        stride: int = 1,
        name: str = "conv",
    ):
        self.ctx = ctx
        self.name = name
        self.in_shape = tuple(in_shape)  # (h, w, c)
        self.kernel = kernel
        self.stride = stride
        self.out_channels = out_channels
        h, w, c = self.in_shape
        self.out_h, self.out_w = conv_output_size(h, w, kernel, kernel, stride)
        rng = ctx.seeds.generator(f"init-{name}")
        fan_in = kernel * kernel * c
        self.weight = SharedTensor.from_plain(
            ctx,
            rng.uniform(-1.0, 1.0, size=(fan_in, out_channels)) / np.sqrt(fan_in),
            label=f"{name}/W",
        ).mark_static()
        self._cols: SharedTensor | None = None
        self._batch: int = 0
        self._grad_w: SharedTensor | None = None

    def _lower(self, x: SharedTensor) -> SharedTensor:
        n = x.shape[0]
        h, w, c = self.in_shape
        cols = [
            im2col(s.reshape(n, h, w, c), self.kernel, self.kernel, self.stride)
            for s in x.shares
        ]
        tasks = []
        for i, col in enumerate(cols):
            tasks.append(
                self.ctx.server_cpu[i].run(
                    self.ctx.config.cpu_spec.elementwise_seconds(
                        x.nbytes + col.nbytes, parallel=self.ctx.config.cpu_parallel
                    ),
                    deps=tuple(t for t in (x.tasks[i],) if t is not None),
                    label=f"{self.name}:im2col",
                )
            )
        return SharedTensor(ctx=self.ctx, shares=tuple(cols), kind=x.kind, tasks=tuple(tasks))

    def forward(self, x: SharedTensor, *, training: bool = True) -> SharedTensor:
        n = x.shape[0]
        expected = int(np.prod(self.in_shape))
        if int(np.prod(x.shape[1:])) != expected:
            raise ShapeError(
                f"{self.name}: input shape {x.shape} does not match {self.in_shape}"
            )
        cols = self._lower(x)
        if training:
            self._cols = cols
            self._batch = n
        y = ops.secure_matmul(cols, self.weight, label=f"{self.name}/fwd")
        # output as (n, out_h*out_w*out_channels) flattened feature map
        return y.reshape(n, self.out_h * self.out_w * self.out_channels)

    def backward(
        self, delta: SharedTensor, *, input_grad: bool = True
    ) -> SharedTensor | None:
        if self._cols is None:
            raise ProtocolError(f"{self.name}: backward before forward")
        n = self._batch
        delta2 = delta.reshape(n * self.out_h * self.out_w, self.out_channels)
        grad_w = ops.secure_matmul(self._cols.T, delta2, label=f"{self.name}/dW")
        self._grad_w = grad_w.mul_public(1.0 / n)
        if not input_grad:
            return None
        dcols = ops.secure_matmul(delta2, self.weight.T, label=f"{self.name}/dX")
        h, w, c = self.in_shape
        imgs_shape = (n, h, w, c)
        dx = tuple(
            col2im(s, imgs_shape, self.kernel, self.kernel, self.stride).reshape(n, -1)
            for s in dcols.shares
        )
        return SharedTensor(
            ctx=self.ctx,
            shares=dx,
            kind="fixed",
            tasks=dcols.tasks,
        )

    def apply_gradients(self, lr: float) -> None:
        if self._grad_w is None:
            raise ProtocolError(f"{self.name}: apply_gradients before backward")
        self.weight = (self.weight - self._grad_w.mul_public(lr)).mark_static()
        self._grad_w = None

    def parameters(self) -> list[SharedTensor]:
        return [self.weight]

    def plan_streams(
        self, in_shape: tuple[int, ...], *, training: bool, input_grad: bool = True
    ) -> tuple[list[TripletRequest], tuple[int, ...]]:
        b = in_shape[0]
        rows = b * self.out_h * self.out_w  # im2col rows
        fan_in = self.kernel * self.kernel * self.in_shape[2]
        oc = self.out_channels
        reqs = [matmul_stream((rows, fan_in), (fan_in, oc))]  # fwd
        if training:
            reqs.append(matmul_stream((fan_in, rows), (rows, oc)))  # dW
            if input_grad:
                reqs.append(matmul_stream((rows, oc), (oc, fan_in)))  # dX
        return reqs, (b, self.out_h * self.out_w * oc)


class SecureAvgPool2D(SecureLayer):
    """Average pooling — linear, so it runs locally on shares.

    Pooling by summation then public division-by-window-size (one local
    ``mul_public`` with truncation) keeps everything non-interactive;
    max-pooling, by contrast, would need one secure comparison per
    window, which is why average pooling is the MPC-friendly choice.
    Input layout: flattened ``(n, h*w*c)`` with ``in_shape=(h, w, c)``.
    """

    def __init__(self, ctx, in_shape: tuple[int, int, int], window: int = 2, *, name: str = "pool"):
        h, w, c = in_shape
        if h % window or w % window:
            raise ShapeError(
                f"{name}: pooling window {window} must divide spatial dims {h}x{w}"
            )
        self.ctx = ctx
        self.name = name
        self.in_shape = tuple(in_shape)
        self.window = int(window)
        self.out_shape = (h // window, w // window, c)
        self._batch = 0

    def _pool_share(self, share: np.ndarray, n: int) -> np.ndarray:
        h, w, c = self.in_shape
        k = self.window
        img = share.reshape(n, h // k, k, w // k, k, c)
        with np.errstate(over="ignore"):
            return img.sum(axis=(2, 4), dtype=np.uint64).reshape(n, -1)

    def forward(self, x: SharedTensor, *, training: bool = True) -> SharedTensor:
        n = x.shape[0]
        if int(np.prod(x.shape[1:])) != int(np.prod(self.in_shape)):
            raise ShapeError(f"{self.name}: input {x.shape} does not match {self.in_shape}")
        self._batch = n
        summed = SharedTensor(
            ctx=self.ctx,
            shares=tuple(self._pool_share(s, n) for s in x.shares),
            kind=x.kind,
            tasks=x.tasks,
        )
        for i in range(len(x.shares)):
            self.ctx.server_cpu[i].run(
                self.ctx.config.cpu_spec.elementwise_seconds(
                    x.nbytes, parallel=self.ctx.config.cpu_parallel
                ),
                label=f"{self.name}:pool",
            )
        return summed.mul_public(1.0 / (self.window * self.window))

    def backward(
        self, delta: SharedTensor, *, input_grad: bool = True
    ) -> SharedTensor | None:
        if not input_grad:
            return None  # parameter-free: the input gradient is all there is
        n = self._batch
        oh, ow, c = self.out_shape
        k = self.window
        scaled = delta.mul_public(1.0 / (k * k))
        shares = []
        for share in scaled.shares:
            img = share.reshape(n, oh, 1, ow, 1, c)
            full = np.broadcast_to(img, (n, oh, k, ow, k, c))
            shares.append(np.ascontiguousarray(full).reshape(n, -1))
        return SharedTensor(
            ctx=self.ctx, shares=tuple(shares), kind="fixed", tasks=scaled.tasks
        )

    def plan_streams(
        self, in_shape: tuple[int, ...], *, training: bool, input_grad: bool = True
    ) -> tuple[list[TripletRequest], tuple[int, ...]]:
        # Linear layer: no triplets, just shrink the feature map.
        return [], (in_shape[0], int(np.prod(self.out_shape)))


class SecureRNNCell(SecureLayer):
    """Elman cell ``h' = act(x W_x + h W_h + b)`` unrolled by the model."""

    def __init__(self, ctx, in_features: int, hidden: int, *, name: str = "rnncell"):
        self.ctx = ctx
        self.name = name
        self.in_features = in_features
        self.hidden = hidden
        rng = ctx.seeds.generator(f"init-{name}")
        sx = 1.0 / np.sqrt(in_features)
        sh = 1.0 / np.sqrt(hidden)
        self.w_x = SharedTensor.from_plain(
            ctx, rng.uniform(-sx, sx, size=(in_features, hidden)), label=f"{name}/Wx"
        ).mark_static()
        self.w_h = SharedTensor.from_plain(
            ctx, rng.uniform(-sh, sh, size=(hidden, hidden)), label=f"{name}/Wh"
        ).mark_static()
        self.bias = SharedTensor.from_plain(ctx, np.zeros((1, hidden)), label=f"{name}/b")
        self._tape: list[dict] = []

    def zero_state(self, batch: int) -> SharedTensor:
        shape = (batch, self.hidden)
        return SharedTensor(
            ctx=self.ctx,
            shares=tuple(
                np.zeros(shape, dtype=np.uint64) for _ in range(self.ctx.n_parties)
            ),
            kind="fixed",
        )

    def step(
        self, x_t: SharedTensor, h: SharedTensor, t: int, *, training: bool = True
    ) -> SharedTensor:
        pre = (
            ops.secure_matmul(x_t, self.w_x, label=f"{self.name}/x@Wx[t{t}]")
            + ops.secure_matmul(h, self.w_h, label=f"{self.name}/h@Wh[t{t}]")
            + self.bias.broadcast_rows(x_t.shape[0])
        )
        out, mask = ops.activation(pre, kind="relu", label=f"{self.name}/act[t{t}]")
        if training:
            self._tape.append({"x": x_t, "h_prev": h, "mask": mask})
        return out

    def backward_through_time(self, delta_last: SharedTensor) -> None:
        """Accumulate BPTT gradients; input gradients are not propagated
        further (inputs are data, not activations of earlier layers)."""
        grad_wx = grad_wh = grad_b = None
        delta = delta_last
        for t, frame in enumerate(reversed(self._tape)):
            delta = ops.secure_elementwise_mul(
                delta, frame["mask"], label=f"{self.name}/bptt-mask[{t}]"
            )
            g_wx = ops.secure_matmul(frame["x"].T, delta, label=f"{self.name}/dWx[{t}]")
            g_wh = ops.secure_matmul(frame["h_prev"].T, delta, label=f"{self.name}/dWh[{t}]")
            g_b = delta.sum_rows()
            grad_wx = g_wx if grad_wx is None else grad_wx + g_wx
            grad_wh = g_wh if grad_wh is None else grad_wh + g_wh
            grad_b = g_b if grad_b is None else grad_b + g_b
            if t + 1 < len(self._tape):
                delta = ops.secure_matmul(delta, self.w_h.T, label=f"{self.name}/dH[{t}]")
        batch = self._tape[0]["x"].shape[0] if self._tape else 1
        self._grad_wx = grad_wx.mul_public(1.0 / batch)
        self._grad_wh = grad_wh.mul_public(1.0 / batch)
        self._grad_b = grad_b.mul_public(1.0 / batch)
        self._tape = []

    def apply_gradients(self, lr: float) -> None:
        self.w_x = (self.w_x - self._grad_wx.mul_public(lr)).mark_static()
        self.w_h = (self.w_h - self._grad_wh.mul_public(lr)).mark_static()
        self.bias = self.bias - self._grad_b.mul_public(lr)

    def parameters(self) -> list[SharedTensor]:
        return [self.w_x, self.w_h, self.bias]
