"""Unit tests for the individual layers: Linear, Conv2d, pooling, activations,
containers, losses and initialisation."""

import numpy as np
import pytest

from gradcheck import check_gradients
from repro.nn import (
    Conv2d,
    CrossEntropyLoss,
    Flatten,
    Linear,
    MaxPool2d,
    Tanh,
)
from repro.nn import init
from repro.tensor import Tensor
from repro.tensor.random import RandomState


@pytest.fixture
def rng():
    return RandomState(9)


class TestLinear:
    def test_output_shape(self, rng):
        layer = Linear(6, 4, rng=rng)
        out = layer(Tensor(rng.normal(size=(3, 6))))
        assert out.shape == (3, 4)

    def test_matches_manual_affine(self, rng):
        layer = Linear(5, 2, rng=rng)
        x = rng.normal(size=(4, 5))
        expected = x @ layer.weight.data.T + layer.bias.data
        assert np.allclose(layer(Tensor(x)).data, expected)

    def test_no_bias(self, rng):
        layer = Linear(5, 2, bias=False, rng=rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_gradients(self, rng):
        layer = Linear(3, 2, rng=rng)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        check_gradients(lambda: (layer(x) ** 2).sum(), [x, layer.weight, layer.bias])


class TestConv2d:
    def test_output_shape_padding_stride(self, rng):
        layer = Conv2d(3, 8, kernel_size=3, stride=2, padding=1, rng=rng)
        out = layer(Tensor(rng.normal(size=(2, 3, 8, 8))))
        assert out.shape == (2, 8, 4, 4)

    def test_matches_reference_convolution(self, rng):
        layer = Conv2d(2, 3, kernel_size=3, stride=1, padding=1, rng=rng)
        x = rng.normal(size=(2, 2, 5, 5))
        out = layer(Tensor(x)).data
        padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        expected = np.zeros_like(out)
        for n in range(2):
            for f in range(3):
                for i in range(5):
                    for j in range(5):
                        window = padded[n, :, i : i + 3, j : j + 3]
                        expected[n, f, i, j] = np.sum(window * layer.weight.data[f]) + layer.bias.data[f]
        assert np.allclose(out, expected)

    def test_fan_in(self):
        assert Conv2d(16, 8, kernel_size=3).fan_in == 144

    def test_gradients(self, rng):
        layer = Conv2d(2, 2, kernel_size=3, padding=1, rng=rng)
        x = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
        check_gradients(lambda: (layer(x) ** 2).mean(), [x, layer.weight, layer.bias])

    @pytest.mark.parametrize("stride, padding", [(1, 0), (2, 1), (2, 2)])
    def test_convolve_uses_the_passed_weight_and_no_bias(self, rng, stride, padding):
        layer = Conv2d(2, 3, kernel_size=3, stride=stride, padding=padding, rng=rng)
        layer.bias.data[:] = 1.0
        weight = rng.normal(size=(3, 2, 3, 3))
        x = rng.normal(size=(2, 2, 6, 5))
        padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        windows = np.lib.stride_tricks.sliding_window_view(padded, (3, 3), axis=(2, 3))
        expected = np.einsum("nchwij,fcij->nfhw", windows[:, :, ::stride, ::stride], weight)
        assert np.allclose(layer.convolve(Tensor(x), Tensor(weight)).data, expected)
        forward = layer(Tensor(x)).data - layer.bias.data.reshape(1, 3, 1, 1)
        assert np.allclose(layer.convolve(Tensor(x), layer.weight).data, forward)

    def test_convolve_gradient_reaches_the_passed_weight(self, rng):
        layer = Conv2d(2, 2, kernel_size=3, stride=2, padding=1, rng=rng)
        weight = Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
        x = Tensor(rng.normal(size=(1, 2, 5, 5)), requires_grad=True)
        check_gradients(lambda: (layer.convolve(x, weight) ** 2).mean(), [x, weight])
        assert layer.weight.grad is None


class TestPoolingLayers:
    def test_max_pool_module(self, rng):
        x = rng.normal(size=(2, 3, 6, 6))
        out = MaxPool2d(2)(Tensor(x)).data
        assert np.allclose(out, x.reshape(2, 3, 3, 2, 3, 2).max(axis=(3, 5)))

    def test_max_pool_module_with_overlapping_windows(self, rng):
        x = rng.normal(size=(2, 3, 5, 5))
        out = MaxPool2d(3, stride=1)(Tensor(x)).data
        windows = np.lib.stride_tricks.sliding_window_view(x, (3, 3), axis=(2, 3))
        assert np.array_equal(out, windows.max(axis=(4, 5)))


class TestActivations:
    def test_tanh_range(self, rng):
        out = Tanh()(Tensor(rng.normal(scale=5.0, size=(100,)))).data
        assert np.all(np.abs(out) <= 1.0)


class TestContainers:
    def test_flatten(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)))
        assert Flatten()(x).shape == (2, 12)


class TestLosses:
    def test_cross_entropy_loss_module(self, rng):
        logits = Tensor(rng.normal(size=(6, 4)))
        targets = rng.randint(0, 4, size=6)
        loss = CrossEntropyLoss()(logits, targets)
        assert loss.data.size == 1
        assert loss.item() > 0

    def test_cross_entropy_loss_module_gradient(self, rng):
        logits = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        targets = rng.randint(0, 3, size=5)
        check_gradients(lambda: CrossEntropyLoss()(logits, targets), [logits])


class TestInit:
    def test_kaiming_std(self):
        weights = init.kaiming_normal((256, 128), rng=RandomState(0))
        expected_std = np.sqrt(2.0 / 128)
        assert abs(weights.std() - expected_std) / expected_std < 0.1

    def test_xavier_uniform_bound(self):
        weights = init.xavier_uniform((64, 32), rng=RandomState(0))
        bound = np.sqrt(6.0 / (64 + 32))
        assert np.abs(weights).max() <= bound

    def test_same_rng_seed_same_weights(self):
        first = init.kaiming_normal((4, 3, 3, 3), rng=RandomState(5))
        second = init.kaiming_normal((4, 3, 3, 3), rng=RandomState(5))
        assert np.array_equal(first, second)
        assert not np.array_equal(first, init.kaiming_normal((4, 3, 3, 3), rng=RandomState(6)))

    def test_conv_fan_computation(self):
        weights = init.kaiming_normal((8, 4, 3, 3), rng=RandomState(0))
        assert weights.shape == (8, 4, 3, 3)

    def test_invalid_shape_raises(self):
        with pytest.raises(ValueError):
            init.kaiming_normal((2, 3, 4))

    def test_constants(self):
        assert np.all(init.zeros((3,)) == 0)
        assert np.all(init.ones((3,)) == 1)

    def test_fill_(self):
        layer = Linear(2, 2)
        init.fill_(layer.weight, np.zeros((2, 2)))
        assert np.allclose(layer.weight.data, 0.0)
