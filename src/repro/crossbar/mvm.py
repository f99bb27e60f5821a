"""Pulse-train matrix-vector multiplication (paper Eqs. 2-4).

:func:`pulsed_mvm` encodes the input values into a pulse train and hands the
whole train to a simulation engine (see :mod:`repro.backend`):

* the :class:`~repro.backend.reference.ReferenceEngine` drives every pulse
  through the crossbar as an independent noisy analog read — the faithful
  ``O(num_pulses x num_tiles)`` simulation used for validation;
* the :class:`~repro.backend.vectorized.VectorizedEngine` (default) folds
  pulses x tiles x batch into one matmul with one batched noise draw —
  statistically identical because the Gaussian read noise is i.i.d. across
  pulses and tiles, so the accumulated noise is one Gaussian whose variance
  is the sum of the per-read variances.

:func:`folded_noisy_mvm` is the closed-form single-shot equivalent for
equal-weight (thermometer) trains (Eq. 4).  The encoded layers draw the same
noise through the engine's ``folded_read_noise``; the tests compare every
path against this closed form.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.tensor.dtype import resolve_dtype

from repro.crossbar.array import CrossbarArray
from repro.crossbar.encoding import BitSlicingEncoder, ThermometerEncoder
from repro.crossbar.tiling import TiledCrossbar
from repro.tensor.random import RandomState, default_rng

Crossbar = Union[CrossbarArray, TiledCrossbar]


def pulsed_mvm(
    crossbar: Crossbar,
    values: np.ndarray,
    encoder: Union[ThermometerEncoder, BitSlicingEncoder],
    add_noise: bool = True,
    engine=None,
    rng: Optional[RandomState] = None,
) -> np.ndarray:
    """Drive ``values`` through ``crossbar`` as a train of binary pulses.

    Parameters
    ----------
    crossbar:
        A single-tile or tiled crossbar storing the weight matrix.
    values:
        Input activations in ``[-1, 1]`` of shape ``(..., in_features)``.
    encoder:
        Bit encoding scheme converting values to pulses.
    add_noise:
        Disable to obtain the ideal accumulated result.
    engine:
        Simulation engine (instance or registry name) executing the reads;
        ``None`` resolves through :func:`repro.sim.resolve_engine_name`.
    rng:
        Random state for the noise draws; defaults to the crossbar's own.
    """
    from repro.backend import resolve_engine

    return resolve_engine(engine).encoded_read(
        crossbar, values, encoder, add_noise=add_noise, rng=rng
    )


def folded_noisy_mvm(
    weights: np.ndarray,
    values: np.ndarray,
    num_pulses: float,
    sigma: float,
    rng: Optional[RandomState] = None,
) -> np.ndarray:
    """Statistically equivalent single-shot form of a thermometer pulse MVM.

    Computes ``values @ W^T + N(0, sigma^2 / num_pulses)`` (paper Eq. 4):
    averaging ``p`` independent per-pulse Gaussian noises of variance
    ``sigma^2`` yields a single Gaussian of variance ``sigma^2 / p``.

    Parameters
    ----------
    weights:
        Binary weight matrix of shape ``(out_features, in_features)``.
    values:
        Decoded (already thermometer-quantised) activations, shape
        ``(..., in_features)``.
    num_pulses:
        Effective pulse count ``n * p``; non-integer values are allowed
        because PLA produces fractional scaling factors.
    sigma:
        Per-pulse noise standard deviation.
    """
    if num_pulses <= 0:
        raise ValueError(f"num_pulses must be positive, got {num_pulses}")
    rng = rng or default_rng()
    values = np.asarray(values, dtype=resolve_dtype())
    weights = np.asarray(weights, dtype=resolve_dtype())
    output = values @ weights.T
    if sigma > 0:
        effective_std = sigma / np.sqrt(float(num_pulses))
        output = output + rng.normal(0.0, effective_std, size=output.shape)
    return output
