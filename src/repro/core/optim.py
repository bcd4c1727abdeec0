"""Optimizers over secret-shared parameters.

SGD updates are *linear* in the gradients, so every optimizer whose
update rule is a linear recurrence (plain SGD, momentum) runs **locally
on shares** — no extra protocol rounds, no triplets.  That observation
is what makes secure training practical: only the forward/backward
products are interactive.

The update arithmetic uses public-scalar multiplication with local
truncation (:meth:`~repro.core.tensor.SharedTensor.mul_public`), the
same primitive the layers use, so optimizer state stays shared
end to end.

Usage::

    opt = MomentumSGD(lr=0.05, momentum=0.9)
    ...
    model.backward(delta)
    opt.step(model)        # instead of model.apply_gradients(lr)
"""

from __future__ import annotations

from repro.core.tensor import SharedTensor
from repro.util.errors import ConfigError


def _layer_grads(layer):
    """(attr_name, param, grad) triples for one layer's pending grads."""
    pairs = []
    if getattr(layer, "_grad_w", None) is not None:
        pairs.append(("weight", layer.weight, layer._grad_w))
    if getattr(layer, "_grad_b", None) is not None:
        pairs.append(("bias", layer.bias, layer._grad_b))
    return pairs


def _walk(layer, prefix: str, seen: set):
    """Yield (path, layer) for a layer and its nested sub-layers.

    Composite layers (residual blocks, RNN models) hold sub-layers as
    attributes; the optimizer must reach their pending gradients too.
    """
    if id(layer) in seen:
        return
    seen.add(id(layer))
    yield prefix, layer
    for attr, value in vars(layer).items():
        if attr.startswith("_"):
            continue
        if hasattr(value, "__dict__") and (hasattr(value, "forward") or hasattr(value, "step")):
            yield from _walk(value, f"{prefix}/{attr}", seen)


class SGD:
    """Plain SGD on shares: ``p <- p - lr * g`` (local)."""

    def __init__(self, lr: float = 0.125):
        if lr <= 0:
            raise ConfigError(f"lr must be positive, got {lr}")
        self.lr = float(lr)

    def update(self, key: str, param: SharedTensor, grad: SharedTensor) -> SharedTensor:
        return param - grad.mul_public(self.lr)

    def step(self, model) -> None:
        """Apply pending gradients on every (possibly nested) layer."""
        seen: set = set()
        for li, top in enumerate(model.layers):
            for path, layer in _walk(top, str(li), seen):
                updated = False
                for attr, param, grad in _layer_grads(layer):
                    setattr(layer, attr, self.update(f"{path}/{attr}", param, grad))
                    setattr(layer, f"_grad_{attr[0]}", None)
                    updated = True
                if not updated and getattr(layer, "_grad_wx", None) is not None:
                    # the RNN cell keeps bespoke BPTT gradient state;
                    # apply its own rule at this optimizer's rate
                    layer.apply_gradients(self.lr)


class MomentumSGD(SGD):
    """Momentum SGD on shares: ``v <- mu v + g;  p <- p - lr v``.

    The velocity ``v`` is itself a shared tensor (initialised to shared
    zeros on first touch), so the optimizer state is as private as the
    parameters.
    """

    def __init__(self, lr: float = 0.125, momentum: float = 0.875):
        super().__init__(lr)
        if not 0.0 <= momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self._velocity: dict[str, SharedTensor] = {}

    def update(self, key: str, param: SharedTensor, grad: SharedTensor) -> SharedTensor:
        vel = self._velocity.get(key)
        if vel is None or vel.shape != grad.shape:
            vel = grad
        else:
            vel = vel.mul_public(self.momentum) + grad
        self._velocity[key] = vel
        return param - vel.mul_public(self.lr)
