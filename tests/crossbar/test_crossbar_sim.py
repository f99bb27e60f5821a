"""Tests for the crossbar simulator: read noise, arrays and tiling."""

import numpy as np
import pytest

from repro.crossbar import (
    CrossbarArray,
    CrossbarConfig,
    GaussianReadNoise,
    TiledCrossbar,
)
from repro.tensor.random import RandomState


@pytest.fixture
def rng():
    return RandomState(17)


def _random_binary_weights(rng, out_features=6, in_features=10):
    return np.where(rng.uniform(size=(out_features, in_features)) < 0.5, -1.0, 1.0)


class TestDeviceModel:
    def test_ideal_mapping_roundtrip(self, rng):
        weights = _random_binary_weights(rng)
        crossbar = CrossbarArray(weights, rng=rng)
        assert np.array_equal(crossbar.effective_weights, weights)

    def test_rejects_non_binary_weights(self, rng):
        with pytest.raises(ValueError):
            CrossbarArray(np.array([[0.5, -1.0]]), rng=rng)
        with pytest.raises(ValueError):
            TiledCrossbar(np.array([[1.0, 0.0, -1.0]]), rng=rng)


class TestNoiseModels:
    def test_no_noise_identity(self, rng):
        # Sigma 0 is the noiseless default: the input comes back unchanged
        # and the stream is left where it was.
        output = rng.normal(size=(4, 4))
        used, untouched = RandomState(5), RandomState(5)
        assert GaussianReadNoise(0.0).apply(output, used) is output
        assert CrossbarConfig().noise.std_for(fan_in=64) == 0.0
        assert np.array_equal(used.normal(size=3), untouched.normal(size=3))

    def test_gaussian_noise_statistics(self, rng):
        noise = GaussianReadNoise(sigma=2.0)
        output = np.zeros(200_000)
        noisy = noise.apply(output, rng)
        assert np.std(noisy) == pytest.approx(2.0, rel=0.02)
        assert noise.std_for() == pytest.approx(2.0)

    def test_gaussian_relative_to_fan_in(self):
        noise = GaussianReadNoise(sigma=0.5, relative_to_fan_in=True)
        assert noise.std_for(fan_in=100) == pytest.approx(5.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GaussianReadNoise(-1.0)


class TestCrossbarArray:
    def test_ideal_matvec_matches_matrix_product(self, rng):
        weights = _random_binary_weights(rng)
        crossbar = CrossbarArray(weights, rng=rng)
        x = rng.uniform(-1, 1, size=(5, 10))
        assert np.allclose(crossbar.read_batch(x), x @ weights.T)

    def test_noise_is_applied(self, rng):
        weights = _random_binary_weights(rng)
        config = CrossbarConfig(noise=GaussianReadNoise(1.0))
        crossbar = CrossbarArray(weights, config=config, rng=rng)
        x = rng.uniform(-1, 1, size=(3, 10))
        noisy = crossbar.read_batch(x)
        clean = crossbar.read_batch(x, add_noise=False)
        assert not np.allclose(noisy, clean)
        assert np.allclose(clean, x @ weights.T)

    def test_noise_statistics(self, rng):
        weights = _random_binary_weights(rng, out_features=4, in_features=8)
        config = CrossbarConfig(noise=GaussianReadNoise(0.5))
        crossbar = CrossbarArray(weights, config=config, rng=rng)
        x = np.zeros((20_000, 8))
        deviations = crossbar.read_batch(x)
        assert np.std(deviations) == pytest.approx(0.5, rel=0.05)
        assert crossbar.read_noise_std() == pytest.approx(0.5)

    def test_rejects_bad_inputs(self, rng):
        weights = _random_binary_weights(rng)
        crossbar = CrossbarArray(weights, rng=rng)
        with pytest.raises(ValueError):
            crossbar.read_batch(np.zeros(7))
        with pytest.raises(ValueError):
            CrossbarArray(np.zeros((2, 2, 2)), rng=rng)

    def test_shape_property(self, rng):
        crossbar = CrossbarArray(_random_binary_weights(rng, 3, 7), rng=rng)
        assert crossbar.shape == (3, 7)


class TestTiledCrossbar:
    def test_matches_single_tile_when_small(self, rng):
        weights = _random_binary_weights(rng, 6, 10)
        tiled = TiledCrossbar(weights, config=CrossbarConfig(max_rows=32, max_cols=32), rng=rng)
        assert tiled.num_tiles == 1
        x = rng.uniform(-1, 1, size=(4, 10))
        assert np.allclose(tiled.read_batch(x, add_noise=False), x @ weights.T)

    def test_splits_large_matrices(self, rng):
        weights = _random_binary_weights(rng, 20, 50)
        tiled = TiledCrossbar(weights, config=CrossbarConfig(max_rows=16, max_cols=8), rng=rng)
        assert tiled.tile_grid == (3, 4)
        assert tiled.num_tiles == 12
        x = rng.uniform(-1, 1, size=(3, 50))
        assert np.allclose(tiled.read_batch(x, add_noise=False), x @ weights.T)

    def test_noise_accumulates_across_row_tiles(self, rng):
        weights = _random_binary_weights(rng, 4, 64)
        config = CrossbarConfig(noise=GaussianReadNoise(1.0), max_rows=16)
        tiled = TiledCrossbar(weights, config=config, rng=rng)
        # 4 row tiles -> accumulated std should be sqrt(4) = 2.
        assert tiled.read_noise_std() == pytest.approx(2.0)
        deviations = tiled.read_batch(np.zeros((20_000, 64)))
        assert np.std(deviations) == pytest.approx(2.0, rel=0.05)

    def test_rejects_bad_inputs(self, rng):
        weights = _random_binary_weights(rng, 4, 8)
        tiled = TiledCrossbar(weights, rng=rng)
        with pytest.raises(ValueError):
            tiled.read_batch(np.zeros(9))
        with pytest.raises(ValueError):
            TiledCrossbar(np.zeros((2,)), rng=rng)
        with pytest.raises(ValueError):
            TiledCrossbar(weights, config=CrossbarConfig(max_rows=0), rng=rng)
