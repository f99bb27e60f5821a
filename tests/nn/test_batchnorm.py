"""Tests for batch normalisation layers."""

import numpy as np
import pytest

from gradcheck import check_gradients
from repro.nn import BatchNorm1d, BatchNorm2d
from repro.tensor import Tensor, no_grad
from repro.tensor.random import RandomState


@pytest.fixture
def rng():
    return RandomState(21)


class TestBatchNorm1d:
    def test_normalises_batch_statistics(self, rng):
        layer = BatchNorm1d(6)
        x = rng.normal(loc=3.0, scale=2.0, size=(64, 6))
        out = layer(Tensor(x)).data
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-6)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_running_stats_updated_in_train_only(self, rng):
        layer = BatchNorm1d(4, momentum=0.5)
        x = rng.normal(loc=2.0, size=(32, 4))
        layer(Tensor(x))
        mean_after_train = layer.running_mean.copy()
        assert not np.allclose(mean_after_train, 0.0)
        layer.eval()
        layer(Tensor(rng.normal(loc=10.0, size=(32, 4))))
        assert np.allclose(layer.running_mean, mean_after_train)

    def test_eval_uses_running_stats(self, rng):
        layer = BatchNorm1d(3, momentum=1.0)
        x = rng.normal(loc=1.0, scale=2.0, size=(128, 3))
        layer(Tensor(x))  # momentum 1.0 -> running stats == batch stats
        layer.eval()
        out = layer(Tensor(x)).data
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-6)

    def test_affine_parameters_apply(self, rng):
        layer = BatchNorm1d(2)
        layer.weight.data[:] = 3.0
        layer.bias.data[:] = 1.0
        out = layer(Tensor(rng.normal(size=(16, 2)))).data
        assert out.std(axis=0) == pytest.approx([3.0, 3.0], rel=0.05)
        assert out.mean(axis=0) == pytest.approx([1.0, 1.0], abs=1e-6)

    def test_gradients(self, rng):
        layer = BatchNorm1d(3)
        x = Tensor(rng.normal(size=(8, 3)), requires_grad=True)
        check_gradients(
            lambda: (layer(x) ** 2).sum(), [x, layer.weight, layer.bias], atol=1e-3
        )


class TestBatchNorm2d:
    def test_normalises_per_channel(self, rng):
        layer = BatchNorm2d(4)
        x = rng.normal(loc=-1.0, scale=3.0, size=(8, 4, 5, 5))
        out = layer(Tensor(x)).data
        assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-6)
        assert np.allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-2)

    def test_output_shape_preserved(self, rng):
        layer = BatchNorm2d(3)
        x = rng.normal(size=(2, 3, 6, 6))
        assert layer(Tensor(x)).shape == (2, 3, 6, 6)

    def test_running_stats_shape(self):
        layer = BatchNorm2d(5)
        assert layer.running_mean.shape == (5,)
        assert layer.running_var.shape == (5,)

    def test_gradients(self, rng):
        layer = BatchNorm2d(2)
        x = Tensor(rng.normal(size=(4, 2, 3, 3)), requires_grad=True)
        check_gradients(
            lambda: (layer(x) ** 2).sum(), [x, layer.weight, layer.bias], atol=1e-3
        )

    def test_widens_saturated_activations(self, rng):
        """BN should re-spread a collapsed activation distribution — the
        property PLA relies on (Section III-B)."""
        layer = BatchNorm2d(1)
        x = rng.normal(loc=0.0, scale=0.01, size=(16, 1, 4, 4))
        out = np.tanh(layer(Tensor(x)).data)
        assert np.abs(out).max() > 0.5


def _trained_eval_layer(cls, shape, rng):
    """An eval-mode layer with non-trivial running statistics and affine."""
    layer = cls(shape[1], momentum=0.7)
    layer(Tensor(rng.normal(loc=0.5, scale=2.0, size=shape)))
    layer.weight.data[:] = rng.normal(size=shape[1])
    layer.bias.data[:] = rng.normal(size=shape[1])
    return layer.eval()


@pytest.mark.parametrize("cls, shape", [(BatchNorm1d, (16, 5)), (BatchNorm2d, (4, 3, 5, 5))])
class TestEvalWithoutGraph:
    """Eval BN with frozen affine parameters fills one buffer with the
    graph's four ops, and under a graph carries only the input's chain."""

    def test_equals_the_graph_expression_bit_for_bit(self, cls, shape, rng):
        layer = _trained_eval_layer(cls, shape, rng)
        x = rng.normal(size=shape)
        with no_grad():
            fused = layer(Tensor(x))
        graph = layer(Tensor(x, requires_grad=True))
        assert not fused.requires_grad and graph.requires_grad
        np.testing.assert_array_equal(fused.data, graph.data)
        view = (1, shape[1]) + (1,) * (len(shape) - 2)
        denominator = np.sqrt(layer.running_var.reshape(view) + layer.eps)
        expected = (x - layer.running_mean.reshape(view)) / denominator
        expected = expected * layer.weight.data.reshape(view) + layer.bias.data.reshape(view)
        np.testing.assert_array_equal(fused.data, expected)

    def test_leaves_its_input_unchanged(self, cls, shape, rng):
        layer = _trained_eval_layer(cls, shape, rng)
        x = rng.normal(size=shape)
        before = x.copy()
        with no_grad():
            out = layer(Tensor(x))
        np.testing.assert_array_equal(x, before)
        assert not np.shares_memory(out.data, x)

    def test_input_requiring_grad_still_records_the_graph(self, cls, shape, rng):
        layer = _trained_eval_layer(cls, shape, rng)
        layer.weight.requires_grad = layer.bias.requires_grad = False
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        out = layer(x)
        assert out.requires_grad
        out.sum().backward()
        view = (1, shape[1]) + (1,) * (len(shape) - 2)
        scale = layer.weight.data / np.sqrt(layer.running_var + layer.eps)
        np.testing.assert_allclose(x.grad, np.broadcast_to(scale.reshape(view), shape))

    def test_frozen_backward_equals_the_graph_bit_for_bit(self, cls, shape, rng):
        # With frozen affine parameters (GBO) the fused op carries only x's
        # chain, grad * weight / denominator, in the graph's order.
        layer = _trained_eval_layer(cls, shape, rng)
        x = rng.normal(size=shape)
        upstream = rng.normal(size=shape)
        runs = []
        for learns_affine in (False, True):
            layer.weight.requires_grad = layer.bias.requires_grad = learns_affine
            layer.weight.zero_grad()
            leaf = Tensor(x, requires_grad=True)
            out = layer(leaf)
            if not learns_affine:
                assert out._parents == (leaf,)
            out.backward(upstream)
            runs.append((out.data, leaf.grad, layer.weight.grad))
        (frozen_out, frozen_grad, frozen_weight_grad), (graph_out, graph_grad, weight_grad) = runs
        assert frozen_out.tobytes() == graph_out.tobytes()
        assert frozen_grad.tobytes() == graph_grad.tobytes()
        assert frozen_weight_grad is None and weight_grad is not None
