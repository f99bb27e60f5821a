"""Single-tile binary crossbar array performing noisy analog MVM."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.tensor.dtype import resolve_dtype

from repro.crossbar.adc import ADC, IdealADC
from repro.crossbar.dac import DAC, IdealDAC
from repro.crossbar.device import ConductanceMapper, DeviceConfig
from repro.crossbar.noise import GaussianReadNoise, NoiseModel, NoNoise
from repro.tensor.random import RandomState, default_rng


@dataclass
class CrossbarConfig:
    """Configuration of a crossbar tile.

    Attributes
    ----------
    noise:
        Output noise model applied per analog read (per pulse).
    device:
        Binary NVM device parameters.
    adc / dac:
        Converter models; ideal (pass-through) converters by default, which
        matches the paper's simplified model of Eq. 1.
    max_rows / max_cols:
        Physical tile size used by :class:`~repro.crossbar.tiling.TiledCrossbar`
        when splitting large weight matrices.
    """

    noise: NoiseModel = field(default_factory=NoNoise)
    device: DeviceConfig = field(default_factory=DeviceConfig)
    adc: Optional[ADC] = None
    dac: Optional[DAC] = None
    max_rows: int = 128
    max_cols: int = 128

    @staticmethod
    def with_gaussian_noise(sigma: float, relative_to_fan_in: bool = False, **kwargs) -> "CrossbarConfig":
        """Convenience constructor for the paper's additive-Gaussian setting."""
        return CrossbarConfig(
            noise=GaussianReadNoise(sigma, relative_to_fan_in=relative_to_fan_in), **kwargs
        )


class CrossbarArray:
    """A single crossbar tile storing a binary weight matrix.

    The weight matrix has shape ``(out_features, in_features)``; inputs are
    applied to the rows (one voltage per input feature) and outputs are read
    from the columns, one per output feature.  Every call to :meth:`matvec`
    models one analog read: DAC on the inputs, ideal dot product through the
    programmed conductances, additive/multiplicative noise, then ADC.
    """

    def __init__(
        self,
        binary_weights: np.ndarray,
        config: Optional[CrossbarConfig] = None,
        rng: Optional[RandomState] = None,
    ):
        self.config = config or CrossbarConfig()
        self._rng = rng or default_rng()
        weights = np.asarray(binary_weights, dtype=resolve_dtype())
        if weights.ndim != 2:
            raise ValueError(f"crossbar weights must be 2-D, got shape {weights.shape}")
        self.out_features, self.in_features = weights.shape
        mapper = ConductanceMapper(self.config.device, rng=self._rng)
        self._g_pos, self._g_neg = mapper.program(weights)
        self._effective = mapper.effective_weights(self._g_pos, self._g_neg)
        self._ideal_weights = weights

    @property
    def shape(self):
        """``(out_features, in_features)`` of the stored matrix."""
        return (self.out_features, self.in_features)

    @property
    def effective_weights(self) -> np.ndarray:
        """Analog weights actually realised by the programmed conductances."""
        return self._effective

    @property
    def assembled_effective_weights(self) -> np.ndarray:
        """Full effective matrix (alias; mirrors the tiled-crossbar API)."""
        return self._effective

    @property
    def ideal_weights(self) -> np.ndarray:
        """The binary weights the crossbar was asked to store."""
        return self._ideal_weights

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
        """Batched analog read: ``inputs @ W^T`` with converter/noise effects.

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
        if self.config.dac is not None:
            inputs = self.config.dac.convert(inputs)
        output = inputs @ self._effective.T
        if add_noise:
            output = self.config.noise.apply(output, rng or self._rng, fan_in=self.in_features)
        if self.config.adc is not None:
            output = self.config.adc.convert(output)
        return output

    def matvec(self, inputs: np.ndarray, add_noise: bool = True) -> np.ndarray:
        """One analog read (alias of :meth:`read_batch` for 1-D/2-D inputs)."""
        return self.read_batch(inputs, add_noise=add_noise)

    def read_noise_std(self) -> float:
        """Additive noise standard deviation of a single read on this tile."""
        return self.config.noise.std_for(self.in_features)

    def __repr__(self) -> str:
        return (
            f"CrossbarArray(out_features={self.out_features}, in_features={self.in_features}, "
            f"noise={self.config.noise!r})"
        )
