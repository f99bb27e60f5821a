"""Weight initialisation schemes.

The pre-training recipe of the paper uses standard Kaiming-style
initialisation for convolutions and Xavier for fully-connected layers;
zeros and ones initialise biases and the batch-norm affine parameters.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.tensor import Tensor
from repro.tensor.dtype import resolve_dtype
from repro.tensor.random import RandomState, default_rng


def _fan_in_and_fan_out(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Compute fan-in / fan-out for linear (2-D) or conv (4-D) weights."""
    if len(shape) == 2:
        fan_out, fan_in = shape
        return fan_in, fan_out
    if len(shape) == 4:
        out_channels, in_channels, kernel_h, kernel_w = shape
        receptive = kernel_h * kernel_w
        return in_channels * receptive, out_channels * receptive
    raise ValueError(f"unsupported weight shape {shape} for fan computation")


def kaiming_normal(
    shape: Tuple[int, ...], gain: float = math.sqrt(2.0), rng: Optional[RandomState] = None
) -> np.ndarray:
    """He-normal initialisation: ``N(0, gain^2 / fan_in)``."""
    rng = rng or default_rng()
    fan_in, _ = _fan_in_and_fan_out(shape)
    std = gain / math.sqrt(fan_in)
    return rng.normal(0.0, std, size=shape)


def xavier_uniform(shape: Tuple[int, ...], gain: float = 1.0, rng: Optional[RandomState] = None) -> np.ndarray:
    """Glorot-uniform initialisation."""
    rng = rng or default_rng()
    fan_in, fan_out = _fan_in_and_fan_out(shape)
    bound = gain * math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    """All-zero initialisation (used for biases and BN shift)."""
    return np.zeros(shape, dtype=resolve_dtype())


def ones(shape: Tuple[int, ...]) -> np.ndarray:
    """All-one initialisation (used for BN scale)."""
    return np.ones(shape, dtype=resolve_dtype())


def fill_(param: Tensor, values: np.ndarray) -> None:
    """Copy ``values`` into an existing parameter in place."""
    np.copyto(param.data, values)
