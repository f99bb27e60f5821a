"""The paper's read-noise model: additive Gaussian noise on each MVM (Eq. 1)."""

from __future__ import annotations

import numpy as np

from repro.tensor.random import RandomState


class GaussianReadNoise:
    """Additive Gaussian output noise ``N(0, sigma^2)`` (paper's Eq. 1).

    Parameters
    ----------
    sigma:
        Noise standard deviation.  When ``relative_to_fan_in`` is ``True``
        the applied deviation is ``sigma * sqrt(fan_in)``, which keeps the
        noise-to-signal ratio comparable across layers and across networks of
        different widths: the ideal output of a fan-in-``n`` row sum grows
        like ``sqrt(n)`` for random binary weights.
    relative_to_fan_in:
        Interpret ``sigma`` as a per-row contribution instead of an absolute
        output deviation.

    ``GaussianReadNoise(0.0)`` is the ideal, noiseless crossbar: :meth:`apply`
    returns its input unchanged and draws nothing.
    """

    def __init__(self, sigma: float, relative_to_fan_in: bool = False):
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        self.sigma = float(sigma)
        self.relative_to_fan_in = relative_to_fan_in

    def std_for(self, fan_in: int = 1) -> float:
        """Standard deviation of one read on a tile with ``fan_in`` rows."""
        if self.relative_to_fan_in:
            return self.sigma * float(np.sqrt(max(fan_in, 1)))
        return self.sigma

    def apply(self, output: np.ndarray, rng: RandomState, fan_in: int = 1) -> np.ndarray:
        """Return ``output`` plus one noise draw of its shape."""
        std = self.std_for(fan_in)
        if std == 0.0:
            return output
        return output + rng.normal(0.0, std, size=output.shape)

    def __repr__(self) -> str:
        return f"GaussianReadNoise(sigma={self.sigma}, relative_to_fan_in={self.relative_to_fan_in})"
