"""Residual networks over the secure layers (paper Section 7.7).

The discussion section argues ParSecureML extends to "more advanced
machine learning models, like ResNet", because residual networks do not
change how convolution is used — most layers are still convolutions,
i.e. triplet multiplications after im2col, and the skip connection is a
*local* share addition (no interaction, no triplet).

This module makes that claim concrete: :class:`SecureResidualBlock`
wraps two convolutions with a skip connection, and
:class:`SecureResNet` stacks blocks into a small classifier.  The only
new protocol ingredient is nothing at all — the skip add is
share-local, exactly as the paper predicts.
"""

from __future__ import annotations

import numpy as np

from repro.core import ops
from repro.core.layers import SecureConv2D, SecureDense, SecureLayer
from repro.core.models import SecureModel
from repro.core.tensor import SharedTensor
from repro.util.errors import ShapeError


class SecureResidualBlock(SecureLayer):
    """Two 3x3 convolutions with identity skip: ``y = relu(F(x) + x)``.

    Channel counts are kept equal in and out so the identity skip needs
    no projection (the classic basic-block special case).
    """

    def __init__(self, ctx, in_shape: tuple[int, int, int], *, name: str = "resblock"):
        self.ctx = ctx
        self.name = name
        h, w, c = in_shape
        self.in_shape = tuple(in_shape)
        # 'same'-style geometry via kernel 3, stride 1 on a VALID conv
        # would shrink the map; we keep VALID convs and pad the *skip*
        # by cropping it to the conv output window instead, which keeps
        # every operation linear/local.
        self.conv1 = SecureConv2D(ctx, in_shape, c, kernel=3, name=f"{name}/conv1")
        mid_shape = (self.conv1.out_h, self.conv1.out_w, c)
        self.conv2 = SecureConv2D(ctx, mid_shape, c, kernel=3, name=f"{name}/conv2")
        self.out_shape = (self.conv2.out_h, self.conv2.out_w, c)
        self._mask1 = None
        self._mask2 = None
        self._skip_cache = None

    def _crop_skip(self, x: SharedTensor, n: int) -> SharedTensor:
        """Centre-crop the input shares to the residual path's geometry."""
        h, w, c = self.in_shape
        oh, ow, _ = self.out_shape
        dh, dw = (h - oh) // 2, (w - ow) // 2
        crops = []
        for share in x.shares:
            img = share.reshape(n, h, w, c)
            crops.append(
                np.ascontiguousarray(img[:, dh : dh + oh, dw : dw + ow, :]).reshape(n, -1)
            )
        return SharedTensor(ctx=self.ctx, shares=tuple(crops), kind=x.kind, tasks=x.tasks)

    def forward(self, x: SharedTensor, *, training: bool = True) -> SharedTensor:
        n = x.shape[0]
        if int(np.prod(x.shape[1:])) != int(np.prod(self.in_shape)):
            raise ShapeError(
                f"{self.name}: input {x.shape} does not match {self.in_shape}"
            )
        h1 = self.conv1.forward(x, training=training)
        a1, mask1 = ops.activation(h1, kind="relu", label=f"{self.name}/relu1")
        h2 = self.conv2.forward(a1, training=training)
        skip = self._crop_skip(x, n)
        summed = h2 + skip  # the residual add: local, no triplet
        out, mask2 = ops.activation(summed, kind="relu", label=f"{self.name}/relu2")
        if training:
            self._mask1, self._mask2 = mask1, mask2
            self._batch = n
        return out

    def backward(
        self, delta: SharedTensor, *, input_grad: bool = True
    ) -> SharedTensor | None:
        delta = ops.secure_elementwise_mul(delta, self._mask2, label=f"{self.name}/drelu2")
        d_conv = self.conv2.backward(delta)
        d_conv = ops.secure_elementwise_mul(d_conv, self._mask1, label=f"{self.name}/drelu1")
        d_main = self.conv1.backward(d_conv, input_grad=input_grad)
        if not input_grad:
            return None
        # gradient w.r.t. the skip path: scatter the cropped delta back
        n = self._batch
        h, w, c = self.in_shape
        oh, ow, _ = self.out_shape
        dh, dw = (h - oh) // 2, (w - ow) // 2
        padded = []
        for share in delta.shares:
            img = share.reshape(n, oh, ow, c)
            full = np.zeros((n, h, w, c), dtype=share.dtype)
            full[:, dh : dh + oh, dw : dw + ow, :] = img
            padded.append(full.reshape(n, -1))
        d_skip = SharedTensor(
            ctx=self.ctx, shares=tuple(padded), kind="fixed", tasks=delta.tasks
        )
        return d_main + d_skip

    def apply_gradients(self, lr: float) -> None:
        self.conv1.apply_gradients(lr)
        self.conv2.apply_gradients(lr)

    def parameters(self) -> list[SharedTensor]:
        return [*self.conv1.parameters(), *self.conv2.parameters()]


class SecureResNet(SecureModel):
    """A small residual classifier: stem conv -> N blocks -> dense head."""

    def __init__(
        self,
        ctx,
        image_shape: tuple[int, int, int],
        *,
        channels: int = 8,
        n_blocks: int = 1,
        n_out: int = 10,
    ):
        super().__init__(ctx)
        stem = SecureConv2D(ctx, image_shape, channels, kernel=3, name="stem")
        shape = (stem.out_h, stem.out_w, channels)
        blocks = []
        for b in range(n_blocks):
            block = SecureResidualBlock(ctx, shape, name=f"block{b}")
            blocks.append(block)
            shape = block.out_shape
        head = SecureDense(ctx, int(np.prod(shape)), n_out, name="head")
        self.layers = [stem, *blocks, head]
