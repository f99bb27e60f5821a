"""Pulse Length Approximation (PLA, Section III-B).

The 9-level activations of the pre-trained network are exactly representable
by 8 thermometer pulses.  GBO, however, wants to explore pulse lengths that
are not multiples of 8 (e.g. 10, 12, 14); such lengths cannot represent the
original levels exactly.  PLA re-encodes the activation with the target
pulse count, rounding the positive-pulse count **towards the nearest
extreme** (towards +1 for non-negative activations, towards -1 for negative
ones).  The paper justifies this with the observation that deep-layer
activations saturate to +-1 after BatchNorm + Tanh, so pushing values
outward introduces a negligible error (Table I's PLA rows).

Both the quantised value and its PLA re-encoding depend on the activation
level alone, so the encoded layers do not evaluate PLA per element: they
look each level index up in :func:`pla_table`, which applies
:func:`pla_approximate` once to the quantiser's own grid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.quant.activation import level_grid
from repro.tensor.dtype import compute_dtype_scope, resolve_dtype

RoundingMode = Literal["toward_extremes", "nearest"]


def pla_positive_counts(
    values: np.ndarray, num_pulses: int, mode: RoundingMode = "toward_extremes"
) -> np.ndarray:
    """Number of +1 pulses assigned to each value under PLA.

    Parameters
    ----------
    values:
        Activations in ``[-1, 1]`` (typically already quantised to 9 levels).
    num_pulses:
        Target thermometer pulse count (any positive integer).
    mode:
        ``"toward_extremes"`` (paper's choice) rounds the fractional pulse
        count up for non-negative values and down for negative ones, pushing
        the representation towards +-1; ``"nearest"`` rounds to the closest
        representable level.
    """
    if num_pulses < 1:
        raise ValueError(f"num_pulses must be positive, got {num_pulses}")
    values = np.clip(np.asarray(values, dtype=resolve_dtype()), -1.0, 1.0)
    exact = (values + 1.0) * 0.5 * num_pulses
    if mode == "nearest":
        counts = np.round(exact)
    elif mode == "toward_extremes":
        counts = np.where(values >= 0.0, np.ceil(exact - 1e-12), np.floor(exact + 1e-12))
    else:
        raise ValueError(f"unknown PLA rounding mode {mode!r}")
    return np.clip(counts, 0, num_pulses).astype(np.int64)


def pla_approximate(
    values: np.ndarray, num_pulses: int, mode: RoundingMode = "toward_extremes"
) -> np.ndarray:
    """Value conveyed by the crossbar after PLA re-encoding.

    Returns ``(2 k - n) / n`` where ``k`` is the positive-pulse count chosen
    by :func:`pla_positive_counts`.
    """
    counts = pla_positive_counts(values, num_pulses, mode=mode)
    return 2.0 * counts.astype(resolve_dtype()) / float(num_pulses) - 1.0


def pla_approximation_error(
    values: np.ndarray, num_pulses: int, mode: RoundingMode = "toward_extremes"
) -> float:
    """Mean absolute difference between the input and its PLA representation."""
    approx = pla_approximate(values, num_pulses, mode=mode)
    return float(np.mean(np.abs(np.asarray(values, dtype=resolve_dtype()) - approx)))


@functools.lru_cache(maxsize=None)
def pla_table(
    levels: int, num_pulses: int, mode: RoundingMode, dtype: np.dtype
) -> np.ndarray:
    """PLA re-encoding of each level of a ``levels``-level activation (read-only).

    Entry ``r`` is :func:`pla_approximate` of the quantiser's level ``r``
    (:func:`~repro.quant.activation.level_grid`), computed under the compute
    dtype ``dtype``, so ``pla_table(...).take(index)`` equals
    ``pla_approximate(quantize_uniform(x))`` bit for bit.
    """
    with compute_dtype_scope(dtype):
        table = pla_approximate(level_grid(levels, dtype), num_pulses, mode=mode)
    table.flags.writeable = False
    return table


def activation_grid(levels: int) -> np.ndarray:
    """The exact values an ``levels``-level activation quantiser can emit.

    The single definition of "the layer's activation grid" shared by GBO's
    selection-time PLA-error report and the facade's PLA calibration, so
    the two can never disagree about what the representation error is
    measured over.  It is the quantiser's own (read-only) grid in the
    compute dtype, the base of every :func:`pla_table`.
    """
    return level_grid(levels, resolve_dtype())


def activation_grid_error(
    levels: int, num_pulses: int, mode: RoundingMode = "toward_extremes"
) -> float:
    """Mean absolute PLA re-encoding error over the exact activation grid."""
    return pla_approximation_error(activation_grid(levels), num_pulses, mode=mode)


@dataclass(frozen=True)
class PulseLengthApproximation:
    """Configured PLA re-encoder.

    Attributes
    ----------
    num_pulses:
        Target pulse count of the re-encoding.
    mode:
        Rounding direction, see :func:`pla_positive_counts`.
    """

    num_pulses: int
    mode: RoundingMode = "toward_extremes"

    def __post_init__(self) -> None:
        if self.num_pulses < 1:
            raise ValueError(f"num_pulses must be positive, got {self.num_pulses}")
        if self.mode not in ("toward_extremes", "nearest"):
            raise ValueError(f"unknown PLA rounding mode {self.mode!r}")

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """Apply the re-encoding to an array of activations."""
        return pla_approximate(values, self.num_pulses, mode=self.mode)

    def positive_counts(self, values: np.ndarray) -> np.ndarray:
        """Positive-pulse counts used by the re-encoding."""
        return pla_positive_counts(values, self.num_pulses, mode=self.mode)

    def error(self, values: np.ndarray) -> float:
        """Mean absolute approximation error on ``values``."""
        return pla_approximation_error(values, self.num_pulses, mode=self.mode)
