"""Synthetic dataset generators."""

import numpy as np
import pytest
from conftest import separable_classification

from repro.datasets import (
    PAPER_DATASETS,
    cifar10_like,
    make_dataset,
    mnist_like,
    nist_like,
    sequence_dataset,
    synthetic_matrix_dataset,
    vggface2_like,
)
from repro.util.errors import ConfigError


class TestPresets:
    def test_all_five_paper_datasets_present(self):
        assert set(PAPER_DATASETS) == {"MNIST", "CIFAR-10", "NIST", "VGGFace2", "SYNTHETIC"}

    def test_paper_geometries(self):
        assert PAPER_DATASETS["MNIST"].image_shape == (28, 28, 1)
        assert PAPER_DATASETS["CIFAR-10"].image_shape == (32, 32, 3)
        assert PAPER_DATASETS["NIST"].image_shape == (512, 512, 1)
        assert PAPER_DATASETS["VGGFace2"].image_shape == (200, 200, 1)
        assert PAPER_DATASETS["SYNTHETIC"].image_shape == (32, 64, 1)

    def test_paper_sample_counts(self):
        assert PAPER_DATASETS["MNIST"].paper_samples == 60_000
        assert PAPER_DATASETS["VGGFace2"].paper_samples == 40_000
        assert PAPER_DATASETS["SYNTHETIC"].paper_samples == 640_000

    def test_features_property(self):
        assert PAPER_DATASETS["MNIST"].features == 784
        assert PAPER_DATASETS["CIFAR-10"].features == 3072


class TestGenerators:
    @pytest.mark.parametrize(
        "gen,shape",
        [
            (mnist_like, (28, 28, 1)),
            (cifar10_like, (32, 32, 3)),
            (synthetic_matrix_dataset, (32, 64, 1)),
        ],
    )
    def test_shapes_and_labels(self, gen, shape):
        x, y = gen(16, seed=0, image_shape=shape)
        assert x.shape == (16, int(np.prod(shape)))
        assert y.shape == (16, 10)
        assert np.array_equal(y.sum(axis=1), np.ones(16))  # one-hot

    def test_nist_like_reduced_geometry(self):
        x, _ = nist_like(4, seed=0, image_shape=(64, 64, 1))
        assert x.shape == (4, 4096)
        assert 0.0 <= x.min() and x.max() <= 1.0

    def test_vggface2_like_range(self):
        x, _ = vggface2_like(2, seed=0, image_shape=(50, 50, 1))
        assert 0.0 <= x.min() and x.max() <= 1.0

    def test_mnist_like_is_sparse(self):
        """Stroke images: mostly zero background (drives ReLU sparsity)."""
        x, _ = mnist_like(8, seed=1)
        assert np.mean(x == 0.0) > 0.5

    def test_cifar_like_is_dense(self):
        x, _ = cifar10_like(4, seed=1)
        assert np.mean(x == 0.0) < 0.05

    def test_determinism(self):
        a, _ = mnist_like(4, seed=9)
        b, _ = mnist_like(4, seed=9)
        assert np.array_equal(a, b)

    def test_seeds_differ(self):
        a, _ = mnist_like(4, seed=1)
        b, _ = mnist_like(4, seed=2)
        assert not np.array_equal(a, b)


class TestSequenceDataset:
    def test_shape(self):
        x, y = sequence_dataset(10, n_steps=4, step_features=8, seed=0)
        assert x.shape == (10, 32)
        assert y.shape == (10, 10)

    def test_classes_distinguishable(self):
        x, y = sequence_dataset(200, seed=0)
        labels = np.argmax(y, axis=1)
        # class-conditional means differ (the signal exists)
        m0 = x[labels == labels[0]].mean(axis=0)
        other = labels[labels != labels[0]][0]
        m1 = x[labels == other].mean(axis=0)
        assert np.abs(m0 - m1).max() > 0.1


class TestSeparable:
    """The SVM tests' data (``conftest.separable_classification``)."""

    def test_labels_pm_one(self):
        x, y = separable_classification(50, 5, seed=0)
        assert set(np.unique(y)) <= {-1.0, 1.0}

    def test_actually_separable(self):
        x, y = separable_classification(100, 5, margin=2.0, seed=0)
        # a least-squares hyperplane should classify perfectly
        w, *_ = np.linalg.lstsq(x, y.ravel(), rcond=None)
        assert np.mean(np.sign(x @ w) == y.ravel()) == 1.0


class TestMakeDataset:
    def test_preset_lookup(self):
        x, y, spec = make_dataset("MNIST", 8, seed=0)
        assert spec.name == "MNIST"
        assert x.shape == (8, 784)

    def test_geometry_override_recorded(self):
        x, y, spec = make_dataset("NIST", 2, seed=0, image_shape=(32, 32, 1))
        assert x.shape == (2, 1024)
        assert "override" in spec.notes

    def test_unknown_dataset(self):
        with pytest.raises(ConfigError):
            make_dataset("IMAGENET", 4)
