"""Seeded random number generation shared across the library.

Every stochastic component of the reproduction (weight initialisation,
data shuffling, crossbar noise sampling, synthetic data generation) draws
from an explicit :class:`RandomState` or from the current execution
context's default generator (see :mod:`repro.context`) seeded via
:func:`manual_seed`, so all experiments are exactly repeatable.

"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.tensor.dtype import resolve_dtype

ShapeLike = Union[int, Tuple[int, ...], Sequence[int]]

_FLOAT64 = np.dtype(np.float64)


class RandomState:
    """Thin wrapper around ``numpy.random.Generator`` with a stable API."""

    def __init__(self, seed: Optional[int] = None):
        self._seed = seed
        self._rng = np.random.default_rng(seed)

    @property
    def seed(self) -> Optional[int]:
        """Seed this generator was created with (``None`` if unseeded)."""
        return self._seed

    def reseed(self, seed: int) -> None:
        """Reset the generator to a new seed."""
        self._seed = seed
        self._rng = np.random.default_rng(seed)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size: Optional[ShapeLike] = None) -> np.ndarray:
        """Gaussian samples in the process compute dtype.

        At float64 (the default policy) this is numpy's ``Generator.normal``
        verbatim — bit-identical to the historical stream.  At float32 the
        single-precision ziggurat sampler is used instead; it consumes the
        underlying bit stream differently, so float32 draws are statistically
        equivalent to (never bit-identical with) the float64 ones.
        """
        dtype = resolve_dtype()
        if dtype == _FLOAT64:
            return self._rng.normal(loc=loc, scale=scale, size=size)
        samples = self._rng.standard_normal(size=size, dtype=dtype)
        scale = np.asarray(scale, dtype=dtype)
        loc = np.asarray(loc, dtype=dtype)
        if scale.ndim == 0 and scale == 1.0 and loc.ndim == 0 and loc == 0.0:
            return samples
        return samples * scale + loc

    def uniform(self, low: float = 0.0, high: float = 1.0, size: Optional[ShapeLike] = None) -> np.ndarray:
        """Uniform samples in ``[low, high)`` in the process compute dtype."""
        dtype = resolve_dtype()
        if dtype == _FLOAT64:
            return self._rng.uniform(low=low, high=high, size=size)
        unit = self._rng.random(size=size, dtype=dtype)
        low = np.asarray(low, dtype=dtype)
        high = np.asarray(high, dtype=dtype)
        return low + (high - low) * unit

    def randint(self, low: int, high: int, size: Optional[ShapeLike] = None) -> np.ndarray:
        """Integer samples in ``[low, high)``."""
        return self._rng.integers(low=low, high=high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        """Random permutation of ``range(n)``."""
        return self._rng.permutation(n)

    def choice(self, options, size: Optional[ShapeLike] = None, replace: bool = True, p=None):
        """Random choice from ``options``."""
        return self._rng.choice(options, size=size, replace=replace, p=p)

    def bernoulli(self, p: float, size: ShapeLike) -> np.ndarray:
        """Bernoulli(p) samples as floats in {0, 1}.

        The comparison always happens on a float64 uniform draw so the
        sampled positions are identical under every compute dtype; only the
        dtype of the returned {0, 1} floats follows the policy.
        """
        return (self._rng.uniform(size=size) < p).astype(resolve_dtype())

    def spawn(self) -> "RandomState":
        """Derive an independent child generator (deterministic given parent)."""
        child_seed = int(self._rng.integers(0, 2**31 - 1))
        return RandomState(child_seed)


def default_rng() -> RandomState:
    """The current execution context's default random state.

    Formerly a module-level singleton; now resolved through
    :func:`repro.context.current_context`, so worker processes and
    explicitly activated contexts each own an independent stream while the
    default path (no context activated) behaves exactly as the old global:
    one shared, seed-0 generator per process.
    """
    from repro.context import current_context

    return current_context().rng


def manual_seed(seed: int) -> None:
    """Reseed the current context's default random state."""
    default_rng().reseed(seed)
