"""Binary memristive crossbar simulator.

This subpackage is the behavioural hardware substrate of the reproduction:

* :mod:`repro.crossbar.device` — binary conductance mapping with device
  variation and finite on/off ratio;
* :mod:`repro.crossbar.noise` — composable analog noise sources (the paper's
  additive Gaussian read noise of Eq. 1, plus device-variation and stuck-at
  fault models for ablations);
* :mod:`repro.crossbar.adc` / :mod:`repro.crossbar.dac` — converter models;
* :mod:`repro.crossbar.encoding` — input bit encodings (bit slicing and
  thermometer coding, Section II-B);
* :mod:`repro.crossbar.array` / :mod:`repro.crossbar.tiling` — single-tile
  and tiled noisy matrix-vector multiplication;
* :mod:`repro.crossbar.mvm` — pulse-train MVM combining an encoder with a
  crossbar (Eqs. 2-4), executed by a pluggable simulation engine (see
  :mod:`repro.backend`);
* :mod:`repro.crossbar.analysis` — the closed-form noise-variance formulas
  behind Fig. 1(b) and Monte-Carlo validation helpers.
"""

from repro.crossbar.device import DeviceConfig, ConductanceMapper
from repro.crossbar.noise import (
    NoiseModel,
    GaussianReadNoise,
    DeviceVariationNoise,
    StuckAtFaultNoise,
    CompositeNoise,
    NoNoise,
)
from repro.crossbar.adc import ADC, IdealADC
from repro.crossbar.dac import DAC, IdealDAC
from repro.crossbar.encoding import (
    PulseTrain,
    ThermometerEncoder,
    BitSlicingEncoder,
)
from repro.crossbar.array import CrossbarArray, CrossbarConfig
from repro.crossbar.tiling import TiledCrossbar
from repro.crossbar.mvm import (
    pulsed_mvm,
    bit_sliced_mvm,
    thermometer_mvm,
    folded_noisy_mvm,
)
from repro.crossbar.analysis import (
    bit_slicing_noise_variance,
    thermometer_noise_variance,
    noise_variance_table,
    monte_carlo_noise_variance,
)
from repro.crossbar.cost import (
    CostModelConfig,
    CrossbarCostModel,
    LayerCost,
    ScheduleCostReport,
)

__all__ = [
    "DeviceConfig",
    "ConductanceMapper",
    "NoiseModel",
    "GaussianReadNoise",
    "DeviceVariationNoise",
    "StuckAtFaultNoise",
    "CompositeNoise",
    "NoNoise",
    "ADC",
    "IdealADC",
    "DAC",
    "IdealDAC",
    "PulseTrain",
    "ThermometerEncoder",
    "BitSlicingEncoder",
    "CrossbarArray",
    "CrossbarConfig",
    "TiledCrossbar",
    "pulsed_mvm",
    "bit_sliced_mvm",
    "thermometer_mvm",
    "folded_noisy_mvm",
    "bit_slicing_noise_variance",
    "thermometer_noise_variance",
    "noise_variance_table",
    "monte_carlo_noise_variance",
    "CostModelConfig",
    "CrossbarCostModel",
    "LayerCost",
    "ScheduleCostReport",
]
