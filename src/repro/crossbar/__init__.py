"""Binary memristive crossbar simulator.

This subpackage is the behavioural hardware substrate of the reproduction.
It models what the paper models: ideal binary cells read under additive
Gaussian noise (Eq. 1), averaged over the pulses of an input encoding
(Eq. 4).

* :mod:`repro.crossbar.noise` — the Gaussian read noise of Eq. 1;
* :mod:`repro.crossbar.encoding` — input bit encodings (bit slicing and
  thermometer coding, Section II-B);
* :mod:`repro.crossbar.array` / :mod:`repro.crossbar.tiling` — single-tile
  and tiled noisy matrix-vector multiplication;
* :mod:`repro.crossbar.mvm` — pulse-train MVM combining an encoder with a
  crossbar (Eqs. 2-4), executed by a pluggable simulation engine (see
  :mod:`repro.backend`);
* :mod:`repro.crossbar.analysis` — the closed-form noise-variance formulas
  behind Fig. 1(b) and Monte-Carlo validation helpers;
* :mod:`repro.crossbar.cost` — latency and energy of a pulse schedule.
"""

from repro.crossbar.noise import GaussianReadNoise
from repro.crossbar.encoding import (
    PulseTrain,
    ThermometerEncoder,
    BitSlicingEncoder,
)
from repro.crossbar.array import CrossbarArray, CrossbarConfig
from repro.crossbar.tiling import TiledCrossbar
from repro.crossbar.mvm import pulsed_mvm, folded_noisy_mvm
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
    "GaussianReadNoise",
    "PulseTrain",
    "ThermometerEncoder",
    "BitSlicingEncoder",
    "CrossbarArray",
    "CrossbarConfig",
    "TiledCrossbar",
    "pulsed_mvm",
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
