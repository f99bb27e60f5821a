"""Tests for the finite-difference checker in ``tests/gradcheck.py``.

Every gradient test in the suite trusts this checker, so it must reject a
wrong or missing backward, not only accept a right one.
"""

import numpy as np
import pytest

from gradcheck import check_gradients, numerical_gradient
from repro.tensor import Tensor


def _scaled_square(x: Tensor, backward_scale: float) -> Tensor:
    """``sum(x**2)`` whose backward multiplies the true gradient by
    ``backward_scale`` (1.0 is correct)."""
    out = x._make_output(np.array(np.sum(x.data ** 2)), (x,))

    def _backward(grad: np.ndarray) -> None:
        x._accumulate(grad * backward_scale * 2.0 * x.data)

    out._backward_fn = _backward
    return out


def test_numerical_gradient_of_a_quadratic():
    x = Tensor(np.array([[1.0, -2.0], [0.5, 3.0]]), requires_grad=True)
    numeric = numerical_gradient(lambda: (x * x).sum(), x)
    assert np.allclose(numeric, 2.0 * x.data, atol=1e-8)


def test_perturbation_leaves_the_data_as_it_was():
    values = np.array([0.3, -1.7, 2.2])
    x = Tensor(values.copy(), requires_grad=True)
    numerical_gradient(lambda: (x.exp()).sum(), x)
    assert np.array_equal(x.data, values)


def test_a_correct_backward_passes():
    x = Tensor(np.array([0.4, -0.9, 1.3]), requires_grad=True)
    assert check_gradients(lambda: _scaled_square(x, 1.0), [x])


def test_a_wrong_backward_is_caught():
    x = Tensor(np.array([0.4, -0.9, 1.3]), requires_grad=True)
    with pytest.raises(AssertionError, match="gradient mismatch for tensor #0"):
        check_gradients(lambda: _scaled_square(x, 1.5), [x])


def test_a_missing_gradient_is_caught():
    """A tensor the backward never reaches compares as an all-zero gradient."""
    x = Tensor(np.array([0.4, -0.9]), requires_grad=True)
    y = Tensor(np.array([1.1, 0.7]), requires_grad=True)
    with pytest.raises(AssertionError, match="tensor #1"):
        check_gradients(lambda: (x * Tensor(y.data)).sum(), [x, y])
