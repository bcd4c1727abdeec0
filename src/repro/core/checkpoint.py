"""Checkpointing secret-shared models.

In deployment, each server must persist *its own share* of the model —
never both — so a checkpoint here is a pair of per-server archives plus
a manifest.  ``save_model``/``load_model`` handle the split/merge and
verify structural consistency on load (shape, dtype, layer inventory),
so a mismatched or tampered pair fails loudly instead of decoding junk.

Format: one ``.npz`` per server (arrays keyed by parameter path) and a
shared JSON manifest with the layer inventory and the fixed-point
configuration, which must match the loading context's.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.tensor import SharedTensor
from repro.util.errors import ConfigError, ProtocolError

MANIFEST_NAME = "manifest.json"


def _collect(obj, prefix: str, out: list, seen: set) -> None:
    """Collect SharedTensor parameters, recursing into nested layers.

    A layer's parameters are whatever its ``parameters()`` returns; each
    is named after the attribute that holds it (found by identity), so a
    layer type needs no entry here to be checkpointed.
    """
    if id(obj) in seen:
        return
    seen.add(id(obj))
    own = {id(p) for p in obj.parameters()} if hasattr(obj, "parameters") else set()
    for attr, value in vars(obj).items():
        if isinstance(value, SharedTensor) and id(value) in own:
            out.append((f"{prefix}/{attr}", value))
        # composite layers (residual blocks, RNN cells) hold sub-layers as
        # attributes; recurse into anything layer-shaped
        elif (
            not attr.startswith("_")
            and hasattr(value, "__dict__")
            and (hasattr(value, "forward") or hasattr(value, "step"))
        ):
            _collect(value, f"{prefix}/{attr}", out, seen)


def _named_parameters(model) -> list[tuple[str, SharedTensor]]:
    out: list[tuple[str, SharedTensor]] = []
    seen: set = set()
    for li, layer in enumerate(model.layers):
        name = getattr(layer, "name", f"layer{li}")
        _collect(layer, name, out, seen)
    named = {id(tensor) for _name, tensor in out}
    unnamed = [p.shape for p in model.parameters() if id(p) not in named]
    if unnamed:
        raise ConfigError(
            f"model.parameters() holds {len(unnamed)} tensor(s) no layer attribute names "
            f"(shapes {unnamed}); a checkpoint would silently drop them"
        )
    return out


def save_model(model, directory: str | Path, *, extra: dict | None = None) -> Path:
    """Write the model's shares as server0.npz / server1.npz + manifest.

    ``extra`` is caller-owned JSON-serialisable metadata stored in the
    manifest and handed back by :func:`load_model` — the training driver
    records its batch cursor there so a restarted run knows where to
    resume.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    params = _named_parameters(model)
    if not params:
        raise ConfigError("model exposes no SharedTensor parameters to checkpoint")
    for party in range(model.ctx.n_parties):
        arrays = {name: tensor.shares[party] for name, tensor in params}
        np.savez(directory / f"server{party}.npz", **arrays)
    manifest = {
        "format": "repro-shared-model-v1",
        "frac_bits": model.ctx.encoder.frac_bits,
        "n_parties": model.ctx.n_parties,
        "parameters": [
            {"name": name, "shape": list(tensor.shape), "kind": tensor.kind}
            for name, tensor in params
        ],
        "extra": dict(extra or {}),
    }
    (directory / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))
    return directory


def load_model(model, directory: str | Path) -> dict:
    """Load shares into an already-constructed model of matching shape.

    Returns the ``extra`` metadata the checkpoint was saved with (an
    empty dict for older checkpoints)."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise ConfigError(f"no checkpoint manifest at {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format") != "repro-shared-model-v1":
        raise ConfigError(f"unknown checkpoint format {manifest.get('format')!r}")
    if manifest["frac_bits"] != model.ctx.encoder.frac_bits:
        raise ProtocolError(
            f"checkpoint frac_bits {manifest['frac_bits']} != "
            f"context frac_bits {model.ctx.encoder.frac_bits}"
        )
    params = dict(_named_parameters(model))
    expected = {p["name"]: p for p in manifest["parameters"]}
    if set(params) != set(expected):
        missing = set(expected) - set(params)
        extra = set(params) - set(expected)
        raise ProtocolError(
            f"model/checkpoint inventory mismatch; missing={sorted(missing)}, "
            f"unexpected={sorted(extra)}"
        )
    n_parties = int(manifest.get("n_parties", 2))
    if n_parties != model.ctx.n_parties:
        raise ProtocolError(
            f"checkpoint holds {n_parties} share archives, "
            f"context expects {model.ctx.n_parties}"
        )
    archives = [np.load(directory / f"server{p}.npz") for p in range(n_parties)]
    for name, tensor in params.items():
        meta = expected[name]
        if list(tensor.shape) != meta["shape"]:
            raise ProtocolError(
                f"parameter {name!r}: model shape {tensor.shape} != "
                f"checkpoint shape {tuple(meta['shape'])}"
            )
        shares = []
        for party in range(n_parties):
            arr = archives[party][name]
            if list(arr.shape) != meta["shape"] or arr.dtype != np.uint64:
                raise ProtocolError(
                    f"checkpoint array {name!r} (server {party}) has "
                    f"shape {arr.shape}/{arr.dtype}, expected {meta['shape']}/uint64"
                )
            shares.append(arr)
        tensor.shares = tuple(shares)
        tensor.kind = meta["kind"]
    return dict(manifest.get("extra", {}))
