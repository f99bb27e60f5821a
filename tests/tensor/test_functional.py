"""Tests for repro.tensor.functional: softmax, cross-entropy, im2col, pooling."""

import numpy as np
import pytest

from gradcheck import check_gradients
from repro.tensor import Tensor
from repro.tensor import functional as F
from repro.tensor.random import RandomState


@pytest.fixture
def rng():
    return RandomState(3)


class TestSoftmax:
    def test_softmax_normalises(self, rng):
        logits = Tensor(rng.normal(size=(5, 7)))
        probs = F.softmax(logits, axis=1).data
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert np.all(probs >= 0)

    def test_softmax_stability_large_values(self):
        logits = Tensor(np.array([[1000.0, 1000.0, 999.0]]))
        probs = F.softmax(logits, axis=1).data
        assert np.all(np.isfinite(probs))
        assert probs[0, 0] == pytest.approx(probs[0, 1])

    def test_log_softmax_matches_log_of_softmax(self, rng):
        logits = Tensor(rng.normal(size=(4, 6)))
        direct = F.log_softmax(logits, axis=1).data
        reference = np.log(F.softmax(logits, axis=1).data)
        assert np.allclose(direct, reference)

    def test_softmax_gradient(self, rng):
        logits = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        check_gradients(lambda: (F.softmax(logits, axis=1) ** 2).sum(), [logits])

    def test_softmax_over_the_first_axis(self, rng):
        logits = rng.normal(size=(4, 3))
        probs = F.softmax(Tensor(logits), axis=0).data
        expected = np.exp(logits) / np.exp(logits).sum(axis=0, keepdims=True)
        assert np.allclose(probs, expected)

    def test_log_softmax_gradient(self, rng):
        logits = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        weights = rng.normal(size=(3, 5))
        check_gradients(lambda: (F.log_softmax(logits, axis=1) * weights).sum(), [logits])


class TestCrossEntropy:
    def test_matches_manual_computation(self, rng):
        logits_np = rng.normal(size=(6, 4))
        targets = rng.randint(0, 4, size=6)
        loss = F.cross_entropy(Tensor(logits_np), targets).item()
        shifted = logits_np - logits_np.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -log_probs[np.arange(6), targets].mean()
        assert loss == pytest.approx(expected)

    def test_perfect_prediction_low_loss(self):
        logits = np.full((3, 5), -10.0)
        targets = np.array([0, 2, 4])
        logits[np.arange(3), targets] = 10.0
        assert F.cross_entropy(Tensor(logits), targets).item() < 1e-6

    def test_gradient(self, rng):
        logits = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        targets = rng.randint(0, 3, size=5)
        check_gradients(lambda: F.cross_entropy(logits, targets), [logits])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.zeros((2, 3, 4))), np.array([0, 1]))
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 1, 2]))


class TestIm2col:
    def test_output_size_formula(self):
        assert F.conv_output_size(32, 3, 1, 1) == 32
        assert F.conv_output_size(32, 2, 2, 0) == 16
        assert F.conv_output_size(5, 3, 1, 0) == 3

    def test_im2col_shape(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        cols = F.im2col(x, kernel=3, stride=1, padding=1)
        assert cols.shape == (3 * 9, 8 * 8 * 2)

    def test_im2col_col2im_adjoint(self, rng):
        """col2im must be the adjoint (transpose) of im2col."""
        x = rng.normal(size=(2, 2, 5, 5))
        cols = F.im2col(x, kernel=3, stride=1, padding=1)
        g = rng.normal(size=cols.shape)
        back = F.col2im(g, x.shape, kernel=3, stride=1, padding=1)
        # <im2col(x), g> == <x, col2im(g)>
        assert np.sum(cols * g) == pytest.approx(np.sum(x * back))

    def test_im2col_tensor_gradient(self, rng):
        x = Tensor(rng.normal(size=(2, 2, 4, 4)), requires_grad=True)
        check_gradients(lambda: (F.im2col_tensor(x, 2, 2, 0) ** 2).sum(), [x])

    @pytest.mark.parametrize(
        "kernel, stride, padding", [(1, 1, 0), (2, 2, 0), (3, 2, 0), (3, 2, 1), (5, 1, 2)]
    )
    def test_adjoint_across_geometries(self, rng, kernel, stride, padding):
        x = rng.normal(size=(2, 3, 7, 6))
        cols = F.im2col(x, kernel=kernel, stride=stride, padding=padding)
        out_h = F.conv_output_size(7, kernel, stride, padding)
        out_w = F.conv_output_size(6, kernel, stride, padding)
        assert cols.shape == (3 * kernel * kernel, out_h * out_w * 2)
        g = rng.normal(size=cols.shape)
        back = F.col2im(g, x.shape, kernel=kernel, stride=stride, padding=padding)
        assert np.sum(cols * g) == pytest.approx(np.sum(x * back))

    def test_columns_are_channel_major_rows_and_spatial_major_columns(self, rng):
        """Row ``c*K*K + ki*K + kj`` holds channel ``c`` at window offset
        ``(ki, kj)``; column ``(oh*out_w + ow)*batch + n`` is window
        ``(oh, ow)`` of image ``n``."""
        x = rng.normal(size=(2, 3, 5, 4))
        kernel, stride, padding = 3, 2, 1
        cols = F.im2col(x, kernel=kernel, stride=stride, padding=padding)
        padded = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        out_h = F.conv_output_size(5, kernel, stride, padding)
        out_w = F.conv_output_size(4, kernel, stride, padding)
        for oh in range(out_h):
            for ow in range(out_w):
                for n in range(2):
                    top, left = oh * stride, ow * stride
                    window = padded[n, :, top : top + kernel, left : left + kernel]
                    column = cols[:, (oh * out_w + ow) * 2 + n]
                    assert np.array_equal(column, window.reshape(-1))


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), kernel=2).data
        assert np.allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_batch_channel_layout(self, rng):
        x = rng.normal(size=(3, 4, 6, 6))
        out = F.max_pool2d(Tensor(x), kernel=2).data
        expected = x.reshape(3, 4, 3, 2, 3, 2).max(axis=(3, 5))
        assert np.allclose(out, expected)

    def test_max_pool_gradient(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
        check_gradients(lambda: (F.max_pool2d(x, 2) ** 2).sum(), [x])

    @pytest.mark.parametrize(
        "shape, kernel, stride", [((1, 2, 5, 5), 2, 2), ((1, 2, 6, 6), 3, 1), ((2, 1, 7, 6), 3, 2)]
    )
    def test_max_pool_gradient_for_windows_that_do_not_tile(self, rng, shape, kernel, stride):
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        check_gradients(lambda: (F.max_pool2d(x, kernel, stride) ** 2).sum(), [x])
