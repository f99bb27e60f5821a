"""Single-tile binary crossbar array performing noisy analog MVM."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.tensor.dtype import resolve_dtype

from repro.crossbar.noise import GaussianReadNoise
from repro.tensor.random import RandomState, default_rng


@dataclass
class CrossbarConfig:
    """Configuration of a crossbar tile.

    Attributes
    ----------
    noise:
        Read noise added per analog read (per pulse); noiseless by default.
    max_rows / max_cols:
        Physical tile size used by :class:`~repro.crossbar.tiling.TiledCrossbar`
        when splitting large weight matrices.
    """

    noise: GaussianReadNoise = field(default_factory=lambda: GaussianReadNoise(0.0))
    max_rows: int = 128
    max_cols: int = 128


class CrossbarArray:
    """A single crossbar tile storing a binary weight matrix.

    The weight matrix has shape ``(out_features, in_features)``; inputs are
    applied to the rows (one voltage per input feature) and outputs are read
    from the columns, one per output feature.  The cells are ideal binary
    devices, so the stored matrix is exactly the analog weight of a read; each
    read adds the configured Gaussian read noise.
    """

    def __init__(
        self,
        binary_weights: np.ndarray,
        config: Optional[CrossbarConfig] = None,
        rng: Optional[RandomState] = None,
    ):
        self.config = config or CrossbarConfig()
        self._rng = rng or default_rng()
        weights = np.array(binary_weights, dtype=resolve_dtype())
        if weights.ndim != 2:
            raise ValueError(f"crossbar weights must be 2-D, got shape {weights.shape}")
        if not np.all(np.isin(weights, (-1.0, 1.0))):
            raise ValueError("binary crossbar can only store weights in {-1, +1}")
        self.out_features, self.in_features = weights.shape
        self._weights = weights

    @property
    def shape(self):
        """``(out_features, in_features)`` of the stored matrix."""
        return (self.out_features, self.in_features)

    @property
    def effective_weights(self) -> np.ndarray:
        """Analog weights of a read: the stored binary matrix."""
        return self._weights

    @property
    def assembled_effective_weights(self) -> np.ndarray:
        """Full effective matrix (alias; mirrors the tiled-crossbar API)."""
        return self._weights

    @property
    def rng(self) -> RandomState:
        """Random state used for this crossbar's noise sampling."""
        return self._rng

    def read_batch(
        self,
        inputs: np.ndarray,
        add_noise: bool = True,
        rng: Optional[RandomState] = None,
    ) -> np.ndarray:
        """Batched analog read: ``inputs @ W^T`` plus read noise.

        Accepts any number of leading batch dimensions — in particular a
        whole pulse train ``(num_pulses, batch, in_features)`` — and models
        one independent analog read per leading-index slice, with the noise
        for the entire stack drawn in a single call.

        Parameters
        ----------
        inputs:
            Array of shape ``(..., in_features)``.
        add_noise:
            Disable to obtain the ideal (noise-free) result, e.g. for
            calibration or for computing signal-to-noise ratios.
        rng:
            Override the crossbar's random state for the noise draw.
        """
        inputs = np.asarray(inputs, dtype=resolve_dtype())
        if inputs.shape[-1] != self.in_features:
            raise ValueError(
                f"input feature dimension {inputs.shape[-1]} does not match "
                f"crossbar rows {self.in_features}"
            )
        output = inputs @ self._weights.T
        if add_noise:
            output = self.config.noise.apply(output, rng or self._rng, fan_in=self.in_features)
        return output

    def read_noise_std(self) -> float:
        """Additive noise standard deviation of a single read on this tile."""
        return self.config.noise.std_for(self.in_features)

    def __repr__(self) -> str:
        return (
            f"CrossbarArray(out_features={self.out_features}, in_features={self.in_features}, "
            f"noise={self.config.noise!r})"
        )
