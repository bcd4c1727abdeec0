"""The Section 7.1 benchmark grid: six models x five datasets.

Geometry policy (recorded per run, cited in EXPERIMENTS.md): the harness
runs every dataset at its true geometry except NIST, whose 512x512
images are reduced to 128x128 by default so a pure-Python grid sweep
stays tractable — ``full_scale=True`` restores the paper geometry.
Convolution strides scale with image size so the CNN's activation maps
stay near MNIST's 24x24 (the paper does not fix a stride; a 5x5/stride-1
conv on 200x200 inputs would make the *plain* baseline intractable too).

RNN runs only on SYNTHETIC, exactly as in the paper ("RNN does not
apply to images").

Beyond the paper grid, two *workload* models (``WORKLOAD_MODELS``) ride
the same harness without joining the 26-cell grid pinned by the tests:
the secure attention block and the embedding-lookup recsys model.  Both
are SYNTHETIC-only like the RNN; ``python -m repro.bench attention|recsys``
runs them as ordinary cells, and ``benchmarks/test_workload_regression.py``
pins their train and inference rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.models import MODELS, build_plain, build_secure
from repro.datasets import make_dataset, sequence_dataset
from repro.util.errors import ConfigError

BENCH_MODELS = [name for name, decl in MODELS.items() if not decl.workload]
#: extra workloads runnable through the same CLI/harness, kept out of
#: BENCH_MODELS so the paper's 26-cell grid stays pinned.
WORKLOAD_MODELS = [name for name, decl in MODELS.items() if decl.workload]
BENCH_DATASETS = ["VGGFace2", "NIST", "SYNTHETIC", "MNIST", "CIFAR-10"]

# datasets whose geometry the harness reduces by default (paper geometry
# via full_scale=True); values are (harness_shape, paper_shape)
_REDUCED_GEOMETRY = {
    "NIST": ((128, 128, 1), (512, 512, 1)),
}

_RNN_STEPS = 8

# attention workload geometry: seq_len tokens x d_model features
_ATTN_SEQ = 4
_ATTN_DMODEL = 16

# recsys workload geometry: one-hot vocab -> embedding width
_RECSYS_VOCAB = 64
_RECSYS_EMB = 16


@dataclass(frozen=True)
class WorkloadSpec:
    """One (model, dataset) cell of the grid, ready to instantiate."""

    model: str
    dataset: str
    image_shape: tuple[int, int, int]
    conv_stride: int
    batch_size: int
    paper_batches: int  # batches in one paper-scale epoch
    geometry_reduced: bool
    #: the model's build_secure / build_plain arguments for this cell
    geometry: dict


def benchmark_grid(*, include_rnn: bool = True) -> list[tuple[str, str]]:
    """(model, dataset) pairs evaluated in the paper (Table 2/3 rows)."""
    cells = []
    for dataset in BENCH_DATASETS:
        for model in BENCH_MODELS:
            if model == "RNN" and dataset != "SYNTHETIC":
                continue  # paper: RNN only on SYNTHETIC
            if model == "RNN" and not include_rnn:
                continue
            cells.append((model, dataset))
    return cells


def _conv_stride(image_shape: tuple[int, int, int]) -> int:
    """Stride keeping the conv output near 24x24 regardless of input."""
    h = image_shape[0]
    return max(1, (h - 5) // 24)


def load_workload(
    model: str,
    dataset: str,
    *,
    n_batches: int = 2,
    batch_size: int = 128,
    seed: int = 0,
    full_scale: bool = False,
) -> tuple[np.ndarray, np.ndarray, WorkloadSpec]:
    """Generate data for one grid cell, sized for ``n_batches`` batches."""
    if model not in MODELS:
        raise ConfigError(f"unknown model {model!r}")
    n_samples = n_batches * batch_size
    if model in WORKLOAD_MODELS and dataset != "SYNTHETIC":
        raise ConfigError(f"{model} is a SYNTHETIC-only workload")
    if model == "RNN" and dataset != "SYNTHETIC":
        raise ConfigError("RNN is evaluated on SYNTHETIC only (paper Section 7.1)")
    if model in ("RNN", *WORKLOAD_MODELS):
        if model == "recsys":
            rng = np.random.default_rng(seed)
            ids = rng.integers(0, _RECSYS_VOCAB, size=n_samples)
            x = np.zeros((n_samples, _RECSYS_VOCAB))
            x[np.arange(n_samples), ids] = 1.0
            labels = rng.integers(0, 10, size=n_samples)
            y = np.zeros((n_samples, 10))
            y[np.arange(n_samples), labels] = 1.0
            geometry = {"vocab": _RECSYS_VOCAB, "emb_dim": _RECSYS_EMB, "n_out": 10}
        elif model == "attention":
            x, y = sequence_dataset(n_samples, _ATTN_SEQ, _ATTN_DMODEL, seed=seed)
            geometry = {"seq_len": _ATTN_SEQ, "d_model": _ATTN_DMODEL, "n_out": 10}
        else:
            x, y = sequence_dataset(n_samples, _RNN_STEPS, 256, seed=seed)
            geometry = {"n_steps": _RNN_STEPS, "step_features": 256}
        spec = WorkloadSpec(
            model=model,
            dataset=dataset,
            image_shape=(1, x.shape[1], 1),
            conv_stride=1,
            batch_size=batch_size,
            paper_batches=640_000 // batch_size,
            geometry_reduced=False,
            geometry=geometry,
        )
        return x, y, spec

    reduced = dataset in _REDUCED_GEOMETRY and not full_scale
    shape_override = _REDUCED_GEOMETRY[dataset][0] if reduced else None
    x, y, dspec = make_dataset(dataset, n_samples, seed=seed, image_shape=shape_override)
    if model == "SVM":
        # binary labels in {-1, +1} from class parity
        labels = np.argmax(y, axis=1)
        y = np.where(labels % 2 == 0, 1.0, -1.0).reshape(-1, 1)
    stride = _conv_stride(dspec.image_shape)
    if model == "CNN":
        geometry = {"image_shape": dspec.image_shape, "conv_stride": stride}
    elif model == "SVM":
        geometry = {"input_dim": dspec.features}
    else:
        geometry = {"input_dim": dspec.features, "n_out": 10}
    spec = WorkloadSpec(
        model=model,
        dataset=dataset,
        image_shape=dspec.image_shape,
        conv_stride=stride,
        batch_size=batch_size,
        paper_batches=max(1, dspec.paper_samples // batch_size),
        geometry_reduced=reduced,
        geometry=geometry,
    )
    return x, y, spec


def build_secure_model(ctx, spec: WorkloadSpec):
    """Instantiate the secure model for one grid cell."""
    return build_secure(spec.model, ctx, **spec.geometry)


def build_plain_model(spec: WorkloadSpec, *, seed: int = 0):
    """Instantiate the matching non-secure model."""
    return build_plain(spec.model, seed=seed, **spec.geometry)
