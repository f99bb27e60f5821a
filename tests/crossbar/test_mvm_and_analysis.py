"""Tests for pulse-train MVM and the closed-form noise analysis (Eqs. 2-4)."""

import numpy as np
import pytest

from repro.crossbar import (
    BitSlicingEncoder,
    CrossbarArray,
    CrossbarConfig,
    GaussianReadNoise,
    ThermometerEncoder,
    bit_slicing_noise_variance,
    folded_noisy_mvm,
    monte_carlo_noise_variance,
    noise_variance_table,
    pulsed_mvm,
    thermometer_noise_variance,
)
from repro.tensor.random import RandomState


@pytest.fixture
def rng():
    return RandomState(31)


def _binary_weights(rng, out_features=4, in_features=12):
    return np.where(rng.uniform(size=(out_features, in_features)) < 0.5, -1.0, 1.0)


class TestPulsedMVM:
    def test_noise_free_thermometer_mvm_matches_ideal(self, rng):
        weights = _binary_weights(rng)
        crossbar = CrossbarArray(weights, rng=rng)
        levels = np.linspace(-1, 1, 9)
        values = rng.choice(levels, size=(5, 12))
        result = pulsed_mvm(crossbar, values, ThermometerEncoder(8), add_noise=False)
        assert np.allclose(result, values @ weights.T)

    def test_noise_free_bit_slicing_mvm_matches_ideal(self, rng):
        weights = _binary_weights(rng)
        crossbar = CrossbarArray(weights, rng=rng)
        levels = np.linspace(-1, 1, 16)
        values = rng.choice(levels, size=(5, 12))
        result = pulsed_mvm(crossbar, values, BitSlicingEncoder(4), add_noise=False)
        assert np.allclose(result, values @ weights.T)

    def test_thermometer_wrapper(self, rng):
        weights = _binary_weights(rng)
        crossbar = CrossbarArray(weights, rng=rng)
        values = rng.choice(np.linspace(-1, 1, 9), size=(3, 12))
        direct = pulsed_mvm(crossbar, values, ThermometerEncoder(8), add_noise=False)
        assert np.allclose(direct, values @ weights.T)

    def test_noisy_mvm_variance_scales_inversely_with_pulses(self, rng):
        weights = _binary_weights(rng, out_features=2, in_features=8)
        config = CrossbarConfig(noise=GaussianReadNoise(1.0))
        crossbar = CrossbarArray(weights, config=config, rng=rng)
        values = np.zeros((2000, 8))

        def deviation_var(num_pulses):
            noisy = pulsed_mvm(crossbar, values, ThermometerEncoder(num_pulses))
            return np.var(noisy)

        var_4 = deviation_var(4)
        var_16 = deviation_var(16)
        assert var_4 / var_16 == pytest.approx(4.0, rel=0.2)


class TestFoldedMVM:
    def test_noise_free_equals_matrix_product(self, rng):
        weights = _binary_weights(rng)
        values = rng.uniform(-1, 1, size=(6, 12))
        out = folded_noisy_mvm(weights, values, num_pulses=8, sigma=0.0, rng=rng)
        assert np.allclose(out, values @ weights.T)

    def test_folded_noise_std_matches_formula(self, rng):
        weights = _binary_weights(rng, 2, 8)
        values = np.zeros((50_000, 8))
        out = folded_noisy_mvm(weights, values, num_pulses=8, sigma=2.0, rng=rng)
        assert np.std(out) == pytest.approx(2.0 / np.sqrt(8), rel=0.02)

    def test_folded_and_pulsed_paths_statistically_equivalent(self, rng):
        """The fast folded path must have the same noise distribution as the
        faithful per-pulse simulation (validates the Eq. 4 shortcut)."""
        weights = _binary_weights(rng, 3, 10)
        sigma = 1.5
        pulses = 8
        values = rng.choice(np.linspace(-1, 1, 9), size=(4000, 10))

        config = CrossbarConfig(noise=GaussianReadNoise(sigma))
        crossbar = CrossbarArray(weights, config=config, rng=rng)
        pulsed = pulsed_mvm(crossbar, values, ThermometerEncoder(pulses))
        folded = folded_noisy_mvm(weights, values, num_pulses=pulses, sigma=sigma, rng=rng)

        ideal = values @ weights.T
        pulsed_dev = (pulsed - ideal).reshape(-1)
        folded_dev = (folded - ideal).reshape(-1)
        assert np.std(pulsed_dev) == pytest.approx(np.std(folded_dev), rel=0.05)
        assert abs(np.mean(pulsed_dev)) < 0.02
        assert abs(np.mean(folded_dev)) < 0.02

    def test_fractional_pulse_count_supported(self, rng):
        weights = _binary_weights(rng, 2, 4)
        out = folded_noisy_mvm(weights, np.zeros((1000, 4)), num_pulses=10.5, sigma=1.0, rng=rng)
        assert np.std(out) == pytest.approx(1.0 / np.sqrt(10.5), rel=0.1)

    def test_invalid_pulses(self, rng):
        with pytest.raises(ValueError):
            folded_noisy_mvm(np.ones((2, 2)), np.ones((1, 2)), num_pulses=0, sigma=1.0)


class TestNoiseAnalysis:
    def test_bit_slicing_formula(self):
        # b=1: single pulse -> variance sigma^2.
        assert bit_slicing_noise_variance(1) == pytest.approx(1.0)
        # b=2: weights 1/3, 2/3 -> variance (1+4)/9.
        assert bit_slicing_noise_variance(2) == pytest.approx(5.0 / 9.0)
        # b=3: (1+4+16)/49
        assert bit_slicing_noise_variance(3) == pytest.approx(21.0 / 49.0)

    def test_thermometer_formula(self):
        assert thermometer_noise_variance(1) == pytest.approx(1.0)
        assert thermometer_noise_variance(8) == pytest.approx(1.0 / 8.0)
        assert thermometer_noise_variance(8, sigma=2.0) == pytest.approx(0.5)

    def test_both_decrease_with_pulses(self):
        slicing = [bit_slicing_noise_variance(b) for b in range(1, 9)]
        thermo = [thermometer_noise_variance(2**b - 1) for b in range(1, 9)]
        assert all(np.diff(slicing) <= 0)
        assert all(np.diff(thermo) <= 0)

    def test_thermometer_always_at_least_as_robust(self):
        """Key claim behind Fig. 1(b): for equal information, thermometer
        coding never has higher accumulated noise variance than bit slicing."""
        for bits in range(1, 9):
            assert thermometer_noise_variance(2**bits - 1) <= bit_slicing_noise_variance(bits) + 1e-12

    def test_bit_slicing_variance_saturates(self):
        """Bit slicing's variance approaches a floor (~1/4 of the single-pulse
        variance) instead of vanishing — the reason the paper prefers
        thermometer coding for long encodings."""
        assert bit_slicing_noise_variance(12) > 0.2

    def test_noise_variance_table_structure(self):
        table = noise_variance_table(range(1, 9))
        assert table["bits"] == [float(b) for b in range(1, 9)]
        assert table["bit_slicing"][0] == pytest.approx(1.0)
        assert table["thermometer"][0] == pytest.approx(1.0)
        assert len(table["thermometer"]) == 8

    def test_noise_variance_table_validation(self):
        with pytest.raises(ValueError):
            noise_variance_table([0, 1])

    def test_monte_carlo_matches_thermometer_formula(self):
        encoder = ThermometerEncoder(7)
        estimate = monte_carlo_noise_variance(
            encoder, sigma=1.0, num_trials=300, rng=RandomState(0)
        )
        assert estimate == pytest.approx(thermometer_noise_variance(7), rel=0.15)

    def test_monte_carlo_matches_bit_slicing_formula(self):
        encoder = BitSlicingEncoder(3)
        estimate = monte_carlo_noise_variance(
            encoder, sigma=1.0, num_trials=300, rng=RandomState(0)
        )
        assert estimate == pytest.approx(bit_slicing_noise_variance(3), rel=0.15)
