"""Synthetic datasets standing in for the paper's five (offline rule).

The evaluation's claims are throughput-vs-shape claims, so each preset
reproduces the *shapes and statistics* of its namesake: sample count,
image geometry, channel count, value range, and the sparsity structure
(e.g. MNIST-like digits are mostly-zero canvases with dense strokes).
``scale`` shrinks sample counts for wall-clock-bounded runs while
keeping per-batch shapes identical, which is what the per-batch cost
model keys on; EXPERIMENTS.md records the scales each figure ran at.
"""

from repro.datasets.synthetic import (
    DatasetSpec,
    make_dataset,
    mnist_like,
    cifar10_like,
    nist_like,
    vggface2_like,
    synthetic_matrix_dataset,
    sequence_dataset,
    PAPER_DATASETS,
)

__all__ = [
    "DatasetSpec",
    "make_dataset",
    "mnist_like",
    "cifar10_like",
    "nist_like",
    "vggface2_like",
    "synthetic_matrix_dataset",
    "sequence_dataset",
    "PAPER_DATASETS",
]
