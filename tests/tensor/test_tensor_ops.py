"""Unit tests for elementwise/reduction operations of the Tensor class."""

import numpy as np
import pytest

from repro.tensor import Tensor


class TestConstruction:
    def test_properties(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        assert t.shape == (2, 3)
        assert t.ndim == 2
        assert t.size == 6
        assert len(t) == 2

    def test_item_scalar(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_repr_mentions_grad(self):
        assert "requires_grad=True" in repr(Tensor([1.0], requires_grad=True))


class TestArithmetic:
    def test_add_sub_mul_div(self):
        a = Tensor([1.0, 2.0, 3.0])
        b = Tensor([4.0, 5.0, 6.0])
        assert np.allclose((a + b).data, [5, 7, 9])
        assert np.allclose((a - b).data, [-3, -3, -3])
        assert np.allclose((a * b).data, [4, 10, 18])
        assert np.allclose((a / b).data, [0.25, 0.4, 0.5])

    def test_scalar_operands(self):
        a = Tensor([1.0, 2.0])
        assert np.allclose((a + 1).data, [2, 3])
        assert np.allclose((1 + a).data, [2, 3])
        assert np.allclose((a * 3).data, [3, 6])
        assert np.allclose((2 - a).data, [1, 0])
        assert np.allclose((2 / a).data, [2, 1])

    def test_neg_and_pow(self):
        a = Tensor([1.0, -2.0])
        assert np.allclose((-a).data, [-1, 2])
        assert np.allclose((a ** 2).data, [1, 4])

    def test_pow_requires_scalar(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_comparisons_return_numpy(self):
        a = Tensor([1.0, 2.0, 3.0])
        assert np.array_equal(a > 1.5, [False, True, True])
        assert np.array_equal(a <= 2.0, [True, True, False])


class TestElementwiseFunctions:
    def test_exp_log_roundtrip(self):
        a = Tensor([0.5, 1.0, 2.0])
        assert np.allclose(a.exp().log().data, a.data)

    def test_sqrt(self):
        assert np.allclose(Tensor([4.0, 9.0]).sqrt().data, [2, 3])

    def test_tanh_bounded(self):
        values = Tensor(np.linspace(-10, 10, 50)).tanh().data
        assert np.all(np.abs(values) <= 1.0)

    def test_clip(self):
        assert np.allclose(Tensor([-2.0, 0.5, 3.0]).clip(-1, 1).data, [-1, 0.5, 1])


class TestReductions:
    def test_sum_all_and_axis(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        assert a.sum().item() == pytest.approx(15.0)
        assert np.allclose(a.sum(axis=0).data, [3, 5, 7])
        assert a.sum(axis=1, keepdims=True).shape == (2, 1)

    def test_mean_and_var(self):
        a = Tensor(np.array([[1.0, 3.0], [2.0, 4.0]]))
        assert a.mean().item() == pytest.approx(2.5)
        assert np.allclose(a.var(axis=0).data, [0.25, 0.25])

    def test_max(self):
        a = Tensor(np.array([[1.0, 5.0], [3.0, 2.0]]))
        assert a.max().item() == pytest.approx(5.0)
        assert np.allclose(a.max(axis=1).data, [5, 3])


class TestShapeManipulation:
    def test_reshape_and_flatten(self):
        a = Tensor(np.arange(24.0).reshape(2, 3, 4))
        assert a.reshape(6, 4).shape == (6, 4)
        assert a.reshape((4, 6)).shape == (4, 6)
        assert a.flatten(start_dim=1).shape == (2, 12)

    def test_transpose(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        assert a.T.shape == (3, 2)
        b = Tensor(np.arange(24.0).reshape(2, 3, 4))
        assert b.transpose(2, 0, 1).shape == (4, 2, 3)

    def test_getitem(self):
        a = Tensor(np.arange(12.0).reshape(3, 4))
        assert np.allclose(a[1].data, [4, 5, 6, 7])
        assert a[0:2, 1:3].shape == (2, 2)


class TestCombination:
    def test_detach(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        detached = a.detach()
        assert not detached.requires_grad
        assert detached.data is a.data

    def test_with_data_shape_mismatch_raises(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            a.with_data(np.zeros((3,)))

    def test_copy_inplace(self):
        a = Tensor([1.0, 2.0])
        a.copy_(Tensor([5.0, 6.0]))
        assert np.allclose(a.data, [5, 6])
