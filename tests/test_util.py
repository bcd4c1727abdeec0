"""Utility layer: seeding, validation, errors."""

import numpy as np
import pytest

from repro.util.errors import (
    ConfigError,
    DeviceError,
    ProtocolError,
    ReproError,
    ShapeError,
    TransportError,
)
from repro.util.seeding import SeedSequenceFactory, derive_seed
from repro.util.validation import (
    check_matmul_compatible,
    check_matrix,
    check_probability,
)


class TestErrors:
    @pytest.mark.parametrize(
        "exc", [ShapeError, ProtocolError, DeviceError, TransportError, ConfigError]
    )
    def test_hierarchy(self, exc):
        assert issubclass(exc, ReproError)

    def test_shape_error_is_value_error(self):
        assert issubclass(ShapeError, ValueError)  # numpy-style catchability


class TestSeeding:
    def test_derive_is_deterministic(self):
        assert derive_seed(42, "x") == derive_seed(42, "x")

    def test_labels_do_not_collide(self):
        seeds = {derive_seed(0, f"label-{i}") for i in range(1000)}
        assert len(seeds) == 1000

    def test_roots_independent(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_factory_generator_streams(self):
        f = SeedSequenceFactory(7)
        a = f.generator("stream").integers(0, 100, 10)
        b = f.generator("stream").integers(0, 100, 10)
        c = f.generator("other").integers(0, 100, 10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_spawn_namespacing(self):
        f = SeedSequenceFactory(7)
        child = f.spawn("server0")
        assert child.seed_for("x") != f.seed_for("x")
        assert child.seed_for("x") == f.spawn("server0").seed_for("x")


class TestValidation:
    def test_check_matrix_accepts_2d(self, rng):
        arr = rng.normal(size=(3, 4))
        assert check_matrix(arr) is arr

    @pytest.mark.parametrize("bad", [np.zeros(3), np.zeros((2, 2, 2)), [[1, 2]]])
    def test_check_matrix_rejects(self, bad):
        with pytest.raises(ShapeError):
            check_matrix(bad)

    def test_check_matmul_compatible(self, rng):
        check_matmul_compatible(rng.normal(size=(2, 3)), rng.normal(size=(3, 4)))
        with pytest.raises(ShapeError):
            check_matmul_compatible(rng.normal(size=(2, 3)), rng.normal(size=(4, 4)))

    def test_check_probability(self):
        assert check_probability(0.5, "p") == 0.5
        for bad in (-0.1, 1.1, "x"):
            with pytest.raises(ConfigError):
                check_probability(bad, "p")
