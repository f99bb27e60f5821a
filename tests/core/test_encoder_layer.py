"""Tests for the crossbar-mapped encoded layers (Eq. 4 / Eq. 5 behaviour)."""

import numpy as np
import pytest

from repro.core import EncodedConv2d, EncodedLinear, PulseScalingSpace
from repro.crossbar import CrossbarConfig, GaussianReadNoise
from repro.sim import SimConfig, apply_config
from repro.tensor import Tensor, no_grad
from repro.tensor.random import RandomState


@pytest.fixture
def rng():
    return RandomState(23)


@pytest.fixture
def linear_layer(rng):
    return EncodedLinear(16, 8, noise_sigma=0.0, rng=RandomState(1), weight_rng=rng)


@pytest.fixture
def conv_layer(rng):
    return EncodedConv2d(2, 4, kernel_size=3, padding=1, noise_sigma=0.0, rng=RandomState(1), weight_rng=rng)


class TestConfiguration:
    def test_defaults(self, linear_layer):
        assert linear_layer.base_pulses == 8
        assert linear_layer.num_pulses == 8
        assert linear_layer.mode == "clean"
        assert linear_layer.fan_in == 16

    def test_conv_fan_in(self, conv_layer):
        assert conv_layer.fan_in == 2 * 9

    def test_mode_validation(self, linear_layer):
        with pytest.raises(ValueError):
            apply_config(linear_layer, SimConfig(mode="weird"))
        with pytest.raises(ValueError):
            apply_config(linear_layer, SimConfig(mode="gbo"))  # gbo not enabled yet

    def test_pulses_and_noise_validation(self, linear_layer):
        with pytest.raises(ValueError):
            apply_config(linear_layer, SimConfig(pulses=0))
        with pytest.raises(ValueError):
            apply_config(linear_layer, SimConfig(noise_sigma=-1.0))

    def test_effective_sigma_relative_mode(self, linear_layer):
        apply_config(linear_layer, SimConfig(noise_sigma=0.5, sigma_relative_to_fan_in=True))
        assert linear_layer.effective_sigma() == pytest.approx(0.5 * np.sqrt(16))

    def test_repr_mentions_state(self, linear_layer, conv_layer):
        assert "pulses=8" in repr(linear_layer)
        assert "EncodedConv2d" in repr(conv_layer)


class TestCleanForward:
    def test_clean_linear_matches_binary_matmul_of_quantised_input(self, linear_layer, rng):
        x = rng.uniform(-1, 1, size=(5, 16))
        out = linear_layer(Tensor(x)).data
        # 9-level quantisation on [-1, 1]: round to the nearest multiple of 0.25.
        quantised = np.round((np.clip(x, -1, 1) + 1) * 0.5 * 8) / 8 * 2 - 1
        expected = quantised @ np.sign(linear_layer.weight.data).T
        assert np.allclose(out, expected)

    def test_clean_forward_is_deterministic(self, conv_layer, rng):
        x = Tensor(rng.uniform(-1, 1, size=(2, 2, 6, 6)))
        assert np.allclose(conv_layer(x).data, conv_layer(x).data)

    def test_conv_output_shape(self, conv_layer, rng):
        out = conv_layer(Tensor(rng.uniform(-1, 1, size=(3, 2, 8, 8))))
        assert out.shape == (3, 4, 8, 8)


class TestNoisyForward:
    def test_noise_added_in_noisy_mode(self, linear_layer, rng):
        apply_config(linear_layer, SimConfig(mode="noisy", noise_sigma=2.0))
        x = Tensor(rng.uniform(-1, 1, size=(4, 16)))
        a = linear_layer(x).data
        b = linear_layer(x).data
        assert not np.allclose(a, b)

    def test_noise_std_scales_with_pulse_count(self, linear_layer):
        x = Tensor(np.zeros((3000, 16)))

        def measured_std(pulses):
            apply_config(linear_layer, SimConfig(mode="noisy", noise_sigma=4.0, pulses=pulses))
            return np.std(linear_layer(x).data)

        std_8 = measured_std(8)
        std_16 = measured_std(16)
        assert std_8 / std_16 == pytest.approx(np.sqrt(2.0), rel=0.1)

    def test_pla_reencoding_used_for_non_base_pulses(self, linear_layer):
        # Zero noise isolates the PLA effect.
        apply_config(linear_layer, SimConfig(mode="noisy", noise_sigma=0.0, pulses=10))
        value = 0.75  # not representable with 10 pulses; pushed to 0.8
        x = Tensor(np.full((1, 16), value))
        out = linear_layer(x).data
        expected = (np.full((1, 16), 0.8) @ np.sign(linear_layer.weight.data).T)
        assert np.allclose(out, expected)

    def test_zero_sigma_noisy_equals_clean_at_base_pulses(self, linear_layer, rng):
        x = Tensor(rng.uniform(-1, 1, size=(4, 16)))
        clean = linear_layer(x).data
        apply_config(linear_layer, SimConfig(mode="noisy"))
        assert np.allclose(linear_layer(x).data, clean)

    def test_simulated_pulsed_forward_statistics_match_folded(self, linear_layer, rng):
        """The explicit per-pulse crossbar simulation must agree with the fast
        folded path in mean and noise spread."""
        sigma = 1.0
        apply_config(linear_layer, SimConfig(mode="noisy", noise_sigma=sigma))
        x = rng.uniform(-1, 1, size=(400, 16))

        folded = linear_layer(Tensor(x)).data
        config = CrossbarConfig(noise=GaussianReadNoise(sigma))
        # Pin the reference engine so this really is the per-pulse simulation
        # (the default vectorized engine would fold, same as the layer path).
        simulated = linear_layer.simulate_pulsed_forward(
            x, crossbar_config=config, engine="reference"
        )

        quantised = np.round((np.clip(x, -1, 1) + 1) * 0.5 * 8) / 8 * 2 - 1
        ideal = quantised @ np.sign(linear_layer.weight.data).T
        assert np.std(folded - ideal) == pytest.approx(np.std(simulated - ideal), rel=0.15)

    def test_as_crossbar_matches_weight_matrix(self, conv_layer):
        crossbar = conv_layer.as_crossbar()
        assert crossbar.out_features == 4
        assert crossbar.in_features == 18


class TestGBOForward:
    def test_enable_gbo_registers_parameter(self, linear_layer):
        space = PulseScalingSpace()
        logits = linear_layer.enable_gbo(space)
        assert logits.shape == (7,)
        assert any(name == "gbo_logits" for name, _ in linear_layer.named_parameters())

    def test_alphas_sum_to_one(self, linear_layer):
        linear_layer.enable_gbo(PulseScalingSpace())
        assert linear_layer.gbo_alphas().data.sum() == pytest.approx(1.0)

    def test_expected_latency_initially_mean_of_options(self, linear_layer):
        space = PulseScalingSpace()
        linear_layer.enable_gbo(space)
        expected = np.mean(space.pulse_counts)
        assert linear_layer.gbo_expected_latency().item() == pytest.approx(expected)

    def test_selected_pulses_follows_argmax(self, linear_layer):
        space = PulseScalingSpace()
        linear_layer.enable_gbo(space)
        linear_layer.gbo_logits.data[:] = 0.0
        linear_layer.gbo_logits.data[5] = 3.0
        assert linear_layer.gbo_selected_pulses() == space.pulse_counts[5]

    def test_gbo_noise_flows_gradients_to_logits(self, linear_layer, rng):
        linear_layer.enable_gbo(PulseScalingSpace())
        apply_config(linear_layer, SimConfig(mode="gbo", noise_sigma=5.0))
        x = Tensor(rng.uniform(-1, 1, size=(4, 16)))
        loss = (linear_layer(x) ** 2).mean()
        loss.backward()
        assert linear_layer.gbo_logits.grad is not None
        assert np.any(linear_layer.gbo_logits.grad != 0)

    def test_gbo_errors_without_enable(self, linear_layer):
        with pytest.raises(ValueError):
            linear_layer.gbo_alphas()
        with pytest.raises(ValueError):
            linear_layer.gbo_selected_pulses()

    def test_gbo_mode_with_zero_sigma_adds_no_noise(self, linear_layer, rng):
        linear_layer.enable_gbo(PulseScalingSpace())
        x = Tensor(rng.uniform(-1, 1, size=(2, 16)))
        clean = linear_layer(x).data
        apply_config(linear_layer, SimConfig(mode="gbo"))
        assert np.allclose(linear_layer(x).data, clean)
