"""Property-based tests (hypothesis) for the autograd engine."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from gradcheck import check_gradients
from repro.tensor import Tensor

_settings = settings(max_examples=30, deadline=None)

finite_arrays = arrays(
    dtype=np.float64,
    shape=array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4),
    elements=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False),
)


@_settings
@given(finite_arrays)
def test_add_is_commutative(values):
    a = Tensor(values)
    b = Tensor(values[::-1].copy())
    assert np.allclose((a + b).data, (b + a).data)


@_settings
@given(finite_arrays)
def test_double_negation_is_identity(values):
    a = Tensor(values)
    assert np.allclose((-(-a)).data, values)


@_settings
@given(finite_arrays)
def test_sum_of_mean_consistency(values):
    tensor = Tensor(values)
    assert np.isclose(tensor.mean().item() * values.size, tensor.sum().item())


@_settings
@given(finite_arrays)
def test_tanh_output_bounded(values):
    assert np.all(np.abs(Tensor(values).tanh().data) <= 1.0)


@_settings
@given(finite_arrays)
def test_clip_respects_bounds(values):
    clipped = Tensor(values).clip(-1.0, 1.0).data
    assert clipped.min() >= -1.0 and clipped.max() <= 1.0


@_settings
@given(finite_arrays)
def test_reshape_preserves_sum_and_gradient(values):
    tensor = Tensor(values, requires_grad=True)
    flat = tensor.reshape(-1)
    assert np.isclose(flat.sum().item(), values.sum())
    flat.sum().backward()
    assert np.allclose(tensor.grad, 1.0)


@_settings
@given(
    arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        elements=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    )
)
def test_matmul_with_identity_is_identity(matrix):
    tensor = Tensor(matrix)
    identity = Tensor(np.eye(matrix.shape[1]))
    assert np.allclose(tensor.matmul(identity).data, matrix)


@_settings
@given(
    arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(2, 4), st.integers(2, 4)),
        elements=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    )
)
def test_analytic_gradient_matches_numeric_for_composite_function(matrix):
    tensor = Tensor(matrix, requires_grad=True)
    check_gradients(lambda: (tensor.tanh() * tensor + tensor.exp()).sum(), [tensor], atol=1e-3)


@_settings
@given(finite_arrays, st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
def test_scalar_multiplication_scales_gradient(values, scale):
    tensor = Tensor(values, requires_grad=True)
    (tensor * scale).sum().backward()
    assert np.allclose(tensor.grad, scale)
