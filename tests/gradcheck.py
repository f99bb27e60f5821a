"""Numerical gradient checking for the test-suite.

Validates differentiable operations and layers against central finite
differences.  ``tests/`` is on ``sys.path`` while pytest runs (its
``conftest.py`` sits in a directory without ``__init__.py``), so tests
import this module as ``from gradcheck import check_gradients``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.tensor import Tensor


def numerical_gradient(
    fn: Callable[[], Tensor], tensor: Tensor, epsilon: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of a scalar-valued ``fn`` w.r.t. ``tensor``.

    ``fn`` must re-evaluate the computation from scratch each call (the
    tensor's data is perturbed in place between evaluations).
    """
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        plus = float(fn().data)
        flat[index] = original - epsilon
        minus = float(fn().data)
        flat[index] = original
        grad_flat[index] = (plus - minus) / (2.0 * epsilon)
    return grad


def check_gradients(
    fn: Callable[[], Tensor],
    tensors: Sequence[Tensor],
    epsilon: float = 1e-5,
    atol: float = 1e-4,
    rtol: float = 1e-3,
) -> bool:
    """Compare analytic and numerical gradients for each tensor in ``tensors``.

    Returns ``True`` when every gradient matches within tolerance, otherwise
    raises ``AssertionError`` describing the first mismatch.
    """
    for tensor in tensors:
        tensor.zero_grad()
    loss = fn()
    loss.backward()
    for position, tensor in enumerate(tensors):
        analytic = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        numeric = numerical_gradient(fn, tensor, epsilon=epsilon)
        if not np.allclose(analytic, numeric, atol=atol, rtol=rtol):
            max_err = float(np.max(np.abs(analytic - numeric)))
            raise AssertionError(
                f"gradient mismatch for tensor #{position} "
                f"(max abs error {max_err:.3e})\nanalytic:\n{analytic}\nnumeric:\n{numeric}"
            )
    return True
