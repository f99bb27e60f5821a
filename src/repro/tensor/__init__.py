"""Reverse-mode automatic differentiation engine on top of numpy.

This subpackage is the lowest-level substrate of the reproduction: a small
autograd system providing the :class:`~repro.tensor.Tensor` class, the
differentiable operations the paper's networks and the GBO objective use,
the compute-dtype policy, and seeded random-number helpers.

The design mirrors the user-facing semantics of mainstream frameworks
(a ``Tensor`` carries ``data``, ``grad`` and ``requires_grad``; operations
build a computation graph; ``backward()`` runs reverse-mode accumulation)
while staying pure numpy so the whole reproduction runs offline on a CPU.
"""

from repro.tensor.tensor import Tensor, no_grad, is_grad_enabled
from repro.tensor import functional
from repro.tensor.dtype import (
    DEFAULT_COMPUTE_DTYPE,
    compute_dtype,
    compute_dtype_name,
    compute_dtype_scope,
    resolve_dtype,
    set_compute_dtype,
)
from repro.tensor.random import RandomState, default_rng, manual_seed

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "RandomState",
    "default_rng",
    "manual_seed",
    "DEFAULT_COMPUTE_DTYPE",
    "compute_dtype",
    "compute_dtype_name",
    "compute_dtype_scope",
    "resolve_dtype",
    "set_compute_dtype",
]
