"""Tests for binary weight and multi-level activation quantisation."""

import numpy as np
import pytest

from gradcheck import check_gradients
from repro.quant import (
    ActivationQuantizer,
    BinaryWeightQuantizer,
    QuantConv2d,
    QuantLinear,
    binarize,
    levels_to_pulses,
    pulses_to_levels,
    quantize_uniform,
)
from repro.tensor import Tensor
from repro.tensor.random import RandomState


@pytest.fixture
def rng():
    return RandomState(13)


class TestBinaryWeights:
    def test_values_are_binary(self, rng):
        weight = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        quantised = binarize(weight)
        assert set(np.unique(quantised.data)).issubset({-1.0, 1.0})

    def test_zero_maps_to_plus_one(self):
        weight = Tensor(np.array([[0.0, -0.2, 0.3]]), requires_grad=True)
        assert np.allclose(binarize(weight).data, [[1.0, -1.0, 1.0]])

    def test_straight_through_gradient(self, rng):
        weight = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        (binarize(weight) * 2.0).sum().backward()
        assert np.allclose(weight.grad, 2.0)

    def test_mean_scale_mode(self, rng):
        weight = Tensor(rng.normal(size=(2, 8)), requires_grad=True)
        quantised = binarize(weight, scale_mode="mean").data
        expected_scale = np.abs(weight.data).mean(axis=1, keepdims=True)
        assert np.allclose(np.abs(quantised), np.broadcast_to(expected_scale, quantised.shape))

    def test_invalid_scale_mode(self, rng):
        weight = Tensor(rng.normal(size=(2, 2)))
        with pytest.raises(ValueError):
            binarize(weight, scale_mode="bogus")
        with pytest.raises(ValueError):
            BinaryWeightQuantizer(scale_mode="bogus")

    def test_quantizer_callable(self, rng):
        quantizer = BinaryWeightQuantizer()
        weight = Tensor(rng.normal(size=(3, 3)))
        assert set(np.unique(quantizer(weight).data)).issubset({-1.0, 1.0})


class TestActivationQuantisation:
    def test_nine_level_grid(self, rng):
        x = Tensor(rng.uniform(-1, 1, size=(100,)))
        quantised = quantize_uniform(x, levels=9).data
        grid = np.linspace(-1, 1, 9)
        assert np.allclose(quantised, grid[np.abs(quantised[:, None] - grid[None, :]).argmin(axis=1)])

    def test_clipping_outside_range(self):
        x = Tensor(np.array([-5.0, 5.0]))
        assert np.allclose(quantize_uniform(x, levels=9).data, [-1.0, 1.0])

    def test_quantisation_error_bounded(self, rng):
        x = rng.uniform(-1, 1, size=(1000,))
        quantised = quantize_uniform(Tensor(x), levels=9).data
        assert np.abs(quantised - x).max() <= 0.125 + 1e-12  # half a step of 0.25

    def test_ste_gradient_inside_range(self, rng):
        x = Tensor(rng.uniform(-0.9, 0.9, size=(20,)), requires_grad=True)
        (quantize_uniform(x, levels=9) * 3.0).sum().backward()
        assert np.allclose(x.grad, 3.0)

    def test_gradient_blocked_outside_clip_range(self):
        x = Tensor(np.array([2.0, -2.0, 0.5]), requires_grad=True)
        quantize_uniform(x, levels=9).sum().backward()
        assert np.allclose(x.grad, [0.0, 0.0, 1.0])

    def test_invalid_levels(self):
        with pytest.raises(ValueError):
            quantize_uniform(Tensor([0.0]), levels=1)
        with pytest.raises(ValueError):
            ActivationQuantizer(levels=1)

    def test_module_enabled_flag(self, rng):
        x = Tensor(rng.uniform(-1, 1, size=(10,)))
        disabled = ActivationQuantizer(levels=9, enabled=False)
        assert np.allclose(disabled(x).data, x.data)

    def test_base_pulses(self):
        assert ActivationQuantizer(levels=9).base_pulses == 8

    def test_levels_pulses_roundtrip(self):
        values = np.linspace(-1, 1, 9)
        counts = levels_to_pulses(values, num_pulses=8)
        assert np.array_equal(counts, np.arange(9))
        assert np.allclose(pulses_to_levels(counts, num_pulses=8), values)

    def test_levels_to_pulses_validation(self):
        with pytest.raises(ValueError):
            levels_to_pulses(np.zeros(3), num_pulses=0)


class TestQuantLayers:
    def test_quant_linear_uses_binary_weights(self, rng):
        layer = QuantLinear(6, 3, rng=rng)
        x = rng.normal(size=(4, 6))
        expected = x @ np.sign(layer.weight.data).T
        assert np.allclose(layer(Tensor(x)).data, expected)

    def test_quant_conv_uses_binary_weights(self, rng):
        layer = QuantConv2d(2, 3, kernel_size=3, padding=1, rng=rng)
        assert set(np.unique(layer.binary_weight().data)).issubset({-1.0, 1.0})
        out = layer(Tensor(rng.normal(size=(2, 2, 5, 5))))
        assert out.shape == (2, 3, 5, 5)

    def test_quant_conv_matches_reference(self, rng):
        layer = QuantConv2d(1, 1, kernel_size=3, padding=0, rng=rng)
        x = rng.normal(size=(1, 1, 3, 3))
        expected = np.sum(np.sign(layer.weight.data[0, 0]) * x[0, 0])
        assert layer(Tensor(x)).data[0, 0, 0, 0] == pytest.approx(expected)

    @pytest.mark.parametrize("stride, padding, bias", [(2, 1, True), (1, 0, False)])
    def test_quant_conv_matches_reference_with_stride_padding_and_bias(
        self, rng, stride, padding, bias
    ):
        layer = QuantConv2d(2, 3, kernel_size=3, stride=stride, padding=padding, bias=bias, rng=rng)
        if bias:
            layer.bias.data[:] = rng.normal(size=3)
        x = rng.normal(size=(2, 2, 6, 5))
        padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        windows = np.lib.stride_tricks.sliding_window_view(padded, (3, 3), axis=(2, 3))
        windows = windows[:, :, ::stride, ::stride]
        expected = np.einsum("nchwij,fcij->nfhw", windows, np.sign(layer.weight.data))
        if bias:
            expected = expected + layer.bias.data.reshape(1, 3, 1, 1)
        assert np.allclose(layer(Tensor(x)).data, expected)

    def test_shadow_weights_receive_gradients(self, rng):
        layer = QuantLinear(4, 2, rng=rng)
        x = Tensor(rng.normal(size=(3, 4)))
        (layer(x) ** 2).sum().backward()
        assert layer.weight.grad is not None
        assert np.any(layer.weight.grad != 0)

    def test_shadow_weights_stay_full_precision_after_update(self, rng):
        layer = QuantLinear(4, 2, rng=rng)
        original = layer.weight.data.copy()
        x = Tensor(rng.normal(size=(3, 4)))
        (layer(x) ** 2).sum().backward()
        layer.weight.data -= 0.01 * layer.weight.grad
        assert not np.allclose(layer.weight.data, np.sign(layer.weight.data))
        assert not np.allclose(layer.weight.data, original)

    def test_quant_conv_gradcheck(self, rng):
        layer = QuantConv2d(1, 2, kernel_size=3, padding=1, rng=rng)
        x = Tensor(rng.normal(size=(1, 1, 4, 4)), requires_grad=True)
        # Only check the input gradient: the weight STE is non-differentiable
        # in the finite-difference sense (sign flips), but the input path is
        # an exact linear map.
        check_gradients(lambda: (layer(x) ** 2).mean(), [x])
