"""Compute-dtype policy facade (float64 default, float32 opt-in).

Every float array the library materialises — tensor storage, gradients,
weight initialisation, RNG draws, crossbar weights, im2col buffers —
resolves its dtype through this module instead of hard-coding ``float64``.
The policy itself lives on the current :class:`repro.context.ExecutionContext`
(it used to be a module-level global here); these functions are thin
facades over :func:`repro.context.current_context`, so:

* code that never opts into an explicit context sees one process-wide
  policy, exactly as before — the default path never changes, so golden
  schedules, scenario-spec hashes and store keys are untouched;
* concurrent executions in *different* contexts (serve worker processes,
  explicitly bound :class:`~repro.sim.Session`\\ s) hold independent
  policies and cannot clobber each other.

Policy values:

* ``float64`` (the default) reproduces the historical behaviour *bit for
  bit*.
* ``float32`` halves the memory bandwidth of every matmul, im2col and noise
  draw on the simulation hot path.  It is strictly opt-in — through
  :func:`set_compute_dtype` / :func:`compute_dtype_scope` directly, or
  declaratively via ``repro.sim.SimConfig(dtype="float32")`` (which joins
  the config's hashed identity only when set).

At float32 the RNG draws use numpy's single-precision samplers, which
consume the underlying bit stream differently from the float64 samplers —
float32 results are therefore *statistically* comparable to float64 ones
(tolerance-tested), never bit-identical.  Within one dtype both engines
still agree sample-for-sample.
"""

from __future__ import annotations

import contextlib
from typing import Any, Iterator

import numpy as np

from repro.context import (
    COMPUTE_DTYPES,
    DEFAULT_COMPUTE_DTYPE,
    canonical_dtype_name,
    current_context,
)

__all__ = [
    "COMPUTE_DTYPES",
    "DEFAULT_COMPUTE_DTYPE",
    "canonical_dtype_name",
    "compute_dtype",
    "compute_dtype_name",
    "compute_dtype_scope",
    "resolve_dtype",
    "set_compute_dtype",
]


def compute_dtype() -> np.dtype:
    """The current context's compute dtype as a numpy dtype."""
    return current_context().dtype


def compute_dtype_name() -> str:
    """The current context's compute dtype's canonical name."""
    return current_context().dtype.name


def set_compute_dtype(dtype: Any) -> np.dtype:
    """Install a new compute dtype on the current context; returns the previous.

    Only newly materialised arrays are affected — existing tensors keep
    their storage.  For an end-to-end float32 run, build the model (and its
    data) under the policy, e.g. inside :func:`compute_dtype_scope`.
    """
    return current_context().set_dtype(dtype)


@contextlib.contextmanager
def compute_dtype_scope(dtype: Any) -> Iterator[np.dtype]:
    """Scope the compute dtype to a ``with`` block, restoring on exit."""
    context = current_context()
    previous = context.set_dtype(dtype)
    try:
        yield context.dtype
    finally:
        context.set_dtype(previous)


def resolve_dtype(dtype: Any = None) -> np.dtype:
    """``dtype`` as a numpy dtype, defaulting to the current context's policy.

    The single resolution rule used by every coercion point in the library:
    an explicit dtype wins, ``None`` follows the policy.
    """
    if dtype is None:
        return current_context().dtype
    return np.dtype(dtype)
