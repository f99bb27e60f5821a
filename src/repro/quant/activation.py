"""Multi-level activation quantisation in ``[-1, 1]``.

The paper quantises activations to 9 levels during pre-training
(Section IV-A); a 9-level value in ``[-1, 1]`` maps exactly onto an 8-pulse
thermometer code (the number of +1 pulses among the 8 equals the level
index).  The quantiser uses a straight-through estimator so it can be active
during pre-training.

Quantisation is split in two so the crossbar layers can share it:
:func:`level_index` clips an activation and rounds it to its level index
``r = round((clip(x) + 1) * 0.5 * steps)`` once, and :func:`take_levels`
looks each index up in a per-level table — :func:`level_grid` for the
quantised value itself, or :func:`repro.core.pla.pla_table` for its PLA
re-encoding.  Every output is a function of the level alone, so the lookup
equals the elementwise expression bit for bit.
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np

from repro.nn.module import Module
from repro.tensor import Tensor
from repro.tensor.dtype import resolve_dtype


def _check_levels(levels: int) -> None:
    if levels < 2:
        raise ValueError(f"levels must be at least 2, got {levels}")


@functools.lru_cache(maxsize=None)
def level_grid(levels: int, dtype: np.dtype) -> np.ndarray:
    """The ``levels`` values the quantiser emits, in ``dtype`` (read-only).

    Entry ``r`` is ``r / steps * 2.0 - 1.0``, the quantiser's own
    expression applied to the rounded level, so ``level_grid(L, d)[r]`` is
    bit for bit the value :func:`quantize_uniform` emits for level ``r``.
    """
    _check_levels(levels)
    grid = np.arange(levels, dtype=dtype) / (levels - 1) * 2.0 - 1.0
    grid.flags.writeable = False
    return grid


def level_index(x: Tensor, levels: int) -> Tuple[Tensor, np.ndarray]:
    """Clip ``x`` to ``[-1, 1]`` and round it to its level index.

    Returns ``(clipped, index)``: ``clipped`` carries the STE (gradients
    pass through unchanged but respect the clip) and ``index`` holds
    ``round((clipped + 1.0) * 0.5 * steps)`` as ``intp``, computed in one
    scratch buffer with the quantiser's operation order.  A NaN has no
    level; its index points one past the last level, so :func:`take_levels`
    rejects it.
    """
    _check_levels(levels)
    clipped = x.clip(-1.0, 1.0)
    scaled = clipped.data + 1.0
    scaled *= 0.5
    scaled *= levels - 1
    index = np.empty(scaled.shape, dtype=np.intp)
    with np.errstate(invalid="raise"):
        try:
            np.rint(scaled, out=index, casting="unsafe")
        except FloatingPointError:  # only a NaN fails the cast
            np.copyto(index, np.rint(np.nan_to_num(scaled, nan=levels)), casting="unsafe")
    return clipped, index


def take_levels(table: np.ndarray, index: np.ndarray, levels: int, pulses: int) -> np.ndarray:
    """``table[index]``: the per-level value of every level index.

    ``table`` holds one value per level of a ``levels``-level activation
    encoded with ``pulses`` pulses; an index outside it (a NaN activation)
    raises ``ValueError``.
    """
    try:
        return table.take(index)
    except IndexError:
        raise ValueError(
            f"activation holds NaN, which has no level of the {levels}-level "
            f"quantiser to encode with {pulses} pulses"
        ) from None


def quantize_uniform(x: Tensor, levels: int = 9) -> Tensor:
    """Quantise a ``[-1, 1]`` tensor to ``levels`` uniformly spaced values.

    Values outside ``[-1, 1]`` are clipped first.  Gradients pass through
    the quantiser unchanged (STE), but respect the clip.  A NaN input
    raises ``ValueError``.
    """
    clipped, index = level_index(x, levels)
    grid = level_grid(levels, clipped.data.dtype)
    return clipped.with_data(take_levels(grid, index, levels, levels - 1))


def levels_to_pulses(values: np.ndarray, num_pulses: int) -> np.ndarray:
    """Convert quantised ``[-1, 1]`` values to the count of positive pulses.

    With ``num_pulses`` thermometer pulses, a value ``v`` is represented by
    ``k`` pulses at +1 and ``num_pulses - k`` at -1 where
    ``k = round((v + 1) / 2 * num_pulses)``.
    """
    if num_pulses < 1:
        raise ValueError(f"num_pulses must be positive, got {num_pulses}")
    counts = np.round((np.asarray(values) + 1.0) * 0.5 * num_pulses)
    return np.clip(counts, 0, num_pulses).astype(np.int64)


def pulses_to_levels(positive_counts: np.ndarray, num_pulses: int) -> np.ndarray:
    """Convert positive-pulse counts back to the represented ``[-1, 1]`` value."""
    counts = np.asarray(positive_counts, dtype=resolve_dtype())
    return 2.0 * counts / float(num_pulses) - 1.0


class ActivationQuantizer(Module):
    """Module form of :func:`quantize_uniform`.

    Parameters
    ----------
    levels:
        Number of quantisation levels (the paper uses 9).
    enabled:
        When ``False`` the module is an identity; used to compare quantised
        and full-precision baselines.
    """

    def __init__(self, levels: int = 9, enabled: bool = True):
        super().__init__()
        _check_levels(levels)
        self.levels = levels
        self.enabled = enabled

    @property
    def base_pulses(self) -> int:
        """Thermometer pulse count that exactly represents ``levels`` levels."""
        return self.levels - 1

    def forward(self, x: Tensor) -> Tensor:
        if not self.enabled:
            return x
        return quantize_uniform(x, levels=self.levels)

    def __repr__(self) -> str:
        return f"ActivationQuantizer(levels={self.levels}, enabled={self.enabled})"
