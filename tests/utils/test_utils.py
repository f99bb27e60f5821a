"""Tests for utility helpers: seeding, logging and serialization."""

import logging
import os

import numpy as np
import pytest

from repro.tensor.random import default_rng
from repro.utils import get_logger, load_state, save_state, seed_everything


class TestSeeding:
    def test_seed_everything_makes_default_rng_reproducible(self):
        seed_everything(99)
        first = default_rng().normal(size=5)
        seed_everything(99)
        second = default_rng().normal(size=5)
        assert np.allclose(first, second)

    def test_seed_everything_seeds_numpy_legacy(self):
        seed_everything(123)
        first = np.random.rand(3)
        seed_everything(123)
        assert np.allclose(first, np.random.rand(3))


class TestLogging:
    def test_get_logger_returns_singleton_handler(self):
        logger_a = get_logger("repro.test")
        logger_b = get_logger("repro.test")
        assert logger_a is logger_b
        assert len(logger_a.handlers) == 1

    def test_level_configurable(self):
        logger = get_logger("repro.test.level", level=logging.WARNING)
        assert logger.level == logging.WARNING


class TestSerialization:
    def test_save_and_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "state.npz")
        arrays = {"weights": np.arange(6.0).reshape(2, 3), "bias": np.zeros(3)}
        save_state(path, arrays, metadata={"note": "test"})
        loaded = load_state(path)
        assert set(loaded) == {"weights", "bias"}
        assert np.allclose(loaded["weights"], arrays["weights"])
        assert os.path.exists(path + ".meta.json")

    def test_load_adds_npz_suffix(self, tmp_path):
        path = str(tmp_path / "model")
        save_state(path, {"a": np.ones(2)})
        loaded = load_state(path)
        assert np.allclose(loaded["a"], 1.0)
