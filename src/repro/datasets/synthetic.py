"""Deterministic synthetic dataset generators.

Each generator returns ``(x, y)`` float64 arrays with ``x`` flattened to
(n, features) — the layout every model and baseline consumes — plus a
:class:`DatasetSpec` describing the image geometry for the CNN path.

Generators are seeded and pure, so a dataset is fully determined by
``(name, n_samples, seed)``; the benchmark harness relies on that to
give ParSecureML and the baselines byte-identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.errors import ConfigError


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of one dataset preset."""

    name: str
    image_shape: tuple[int, int, int]  # (h, w, c)
    n_classes: int
    paper_samples: int  # sample count the paper used
    notes: str

    @property
    def features(self) -> int:
        h, w, c = self.image_shape
        return h * w * c


# The paper's five datasets (Section 7.1).  NIST images are 512x512 in
# the paper; the preset defaults to that geometry, and the benchmark
# harness may run a reduced geometry recorded in EXPERIMENTS.md.
PAPER_DATASETS: dict[str, DatasetSpec] = {
    "MNIST": DatasetSpec(
        name="MNIST",
        image_shape=(28, 28, 1),
        n_classes=10,
        paper_samples=60_000,
        notes="handwritten-digit-like sparse strokes on zero background",
    ),
    "CIFAR-10": DatasetSpec(
        name="CIFAR-10",
        image_shape=(32, 32, 3),
        n_classes=10,
        paper_samples=50_000,
        notes="dense natural-image-like colour statistics",
    ),
    "NIST": DatasetSpec(
        name="NIST",
        image_shape=(512, 512, 1),
        n_classes=10,
        paper_samples=4_000,
        notes="fingerprint-like ridge patterns (oriented sinusoids)",
    ),
    "VGGFace2": DatasetSpec(
        name="VGGFace2",
        image_shape=(200, 200, 1),
        n_classes=10,
        paper_samples=40_000,
        notes="face-like smooth blobs, resized to 200x200 as in the paper",
    ),
    "SYNTHETIC": DatasetSpec(
        name="SYNTHETIC",
        image_shape=(32, 64, 1),
        n_classes=10,
        paper_samples=640_000,
        notes="the paper's generated 32x64 matrices",
    ),
}


def _labels_onehot(rng: np.random.Generator, n: int, n_classes: int) -> np.ndarray:
    labels = rng.integers(0, n_classes, size=n)
    y = np.zeros((n, n_classes))
    y[np.arange(n), labels] = 1.0
    return y


def mnist_like(n_samples: int, *, seed: int = 0, image_shape=(28, 28, 1)) -> tuple[np.ndarray, np.ndarray]:
    """Sparse stroke images: ~80% zeros, strokes in [0, 1] (MNIST-esque)."""
    rng = np.random.default_rng(seed)
    h, w, c = image_shape
    n_feat = h * w * c
    x = np.zeros((n_samples, n_feat))
    # each sample: a handful of random line segments rasterised coarsely
    for i in range(n_samples):
        img = np.zeros((h, w))
        for _ in range(rng.integers(3, 7)):
            r0, c0 = rng.integers(0, h), rng.integers(0, w)
            dr, dc = rng.integers(-2, 3), rng.integers(-2, 3)
            length = rng.integers(4, max(h, w))
            for s in range(length):
                r, cc = r0 + s * dr // 3, c0 + s * dc // 3
                if 0 <= r < h and 0 <= cc < w:
                    img[r, cc] = rng.uniform(0.5, 1.0)
        x[i] = np.repeat(img.reshape(-1), c)
    y = _labels_onehot(rng, n_samples, 10)
    return x, y


def cifar10_like(n_samples: int, *, seed: int = 0, image_shape=(32, 32, 3)) -> tuple[np.ndarray, np.ndarray]:
    """Dense smooth colour images in [0, 1] (low-pass filtered noise)."""
    rng = np.random.default_rng(seed)
    h, w, c = image_shape
    raw = rng.normal(size=(n_samples, h, w, c))
    # cheap separable smoothing for natural-image-like spatial correlation
    for axis in (1, 2):
        raw = (raw + np.roll(raw, 1, axis=axis) + np.roll(raw, -1, axis=axis)) / 3.0
    raw = (raw - raw.min()) / (raw.max() - raw.min() + 1e-12)
    return raw.reshape(n_samples, -1), _labels_onehot(rng, n_samples, 10)


def nist_like(n_samples: int, *, seed: int = 0, image_shape=(512, 512, 1)) -> tuple[np.ndarray, np.ndarray]:
    """Fingerprint-like oriented ridge patterns (sinusoidal gratings)."""
    rng = np.random.default_rng(seed)
    h, w, c = image_shape
    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    x = np.empty((n_samples, h * w * c))
    for i in range(n_samples):
        theta = rng.uniform(0, np.pi)
        freq = rng.uniform(0.15, 0.45)
        phase = rng.uniform(0, 2 * np.pi)
        ridges = 0.5 + 0.5 * np.sin(freq * (xx * np.cos(theta) + yy * np.sin(theta)) + phase)
        ridges += rng.normal(scale=0.05, size=ridges.shape)
        x[i] = np.repeat(np.clip(ridges, 0, 1).reshape(-1), c)
    return x, _labels_onehot(rng, n_samples, 10)


def vggface2_like(n_samples: int, *, seed: int = 0, image_shape=(200, 200, 1)) -> tuple[np.ndarray, np.ndarray]:
    """Face-like images: smooth elliptical blobs plus feature spots."""
    rng = np.random.default_rng(seed)
    h, w, c = image_shape
    yy, xx = np.meshgrid(np.linspace(-1, 1, h), np.linspace(-1, 1, w), indexing="ij")
    x = np.empty((n_samples, h * w * c))
    for i in range(n_samples):
        cy, cx = rng.uniform(-0.2, 0.2, size=2)
        ry, rx = rng.uniform(0.5, 0.8, size=2)
        face = np.exp(-(((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2) * 2.0)
        for _ in range(3):  # eyes + mouth analogues
            fy, fx = rng.uniform(-0.4, 0.4, size=2)
            face -= 0.4 * np.exp(-(((yy - cy - fy) * 8) ** 2 + ((xx - cx - fx) * 8) ** 2))
        face += rng.normal(scale=0.03, size=face.shape)
        x[i] = np.repeat(np.clip(face, 0, 1).reshape(-1), c)
    return x, _labels_onehot(rng, n_samples, 10)


def synthetic_matrix_dataset(
    n_samples: int, *, seed: int = 0, image_shape=(32, 64, 1)
) -> tuple[np.ndarray, np.ndarray]:
    """The paper's SYNTHETIC workload: random 32x64 matrices."""
    rng = np.random.default_rng(seed)
    h, w, c = image_shape
    x = rng.uniform(0.0, 1.0, size=(n_samples, h * w * c))
    return x, _labels_onehot(rng, n_samples, 10)


def sequence_dataset(
    n_samples: int, n_steps: int = 8, step_features: int = 16, *, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Time-series data for the RNN: noisy class-dependent sinusoids."""
    rng = np.random.default_rng(seed)
    n_classes = 10
    labels = rng.integers(0, n_classes, size=n_samples)
    t = np.linspace(0, 2 * np.pi, n_steps * step_features)
    x = np.sin((labels[:, None] + 1) * t[None, :] / 2.0) + rng.normal(
        scale=0.1, size=(n_samples, t.size)
    )
    y = np.zeros((n_samples, n_classes))
    y[np.arange(n_samples), labels] = 1.0
    return x, y


_GENERATORS = {
    "MNIST": mnist_like,
    "CIFAR-10": cifar10_like,
    "NIST": nist_like,
    "VGGFace2": vggface2_like,
    "SYNTHETIC": synthetic_matrix_dataset,
}


def make_dataset(
    name: str,
    n_samples: int,
    *,
    seed: int = 0,
    image_shape: tuple[int, int, int] | None = None,
) -> tuple[np.ndarray, np.ndarray, DatasetSpec]:
    """Generate a preset dataset; optionally override the geometry.

    Overriding ``image_shape`` (e.g. running NIST at 128x128) keeps the
    statistics but shrinks the feature count; the harness records any
    override in its output so EXPERIMENTS.md can cite it.
    """
    if name not in _GENERATORS:
        raise ConfigError(f"unknown dataset {name!r}; have {sorted(_GENERATORS)}")
    spec = PAPER_DATASETS[name]
    shape = image_shape or spec.image_shape
    x, y = _GENERATORS[name](n_samples, seed=seed, image_shape=shape)
    if image_shape is not None:
        spec = DatasetSpec(
            name=spec.name,
            image_shape=tuple(image_shape),
            n_classes=spec.n_classes,
            paper_samples=spec.paper_samples,
            notes=spec.notes + f" (geometry override {image_shape})",
        )
    return x, y, spec
