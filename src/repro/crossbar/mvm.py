"""Pulse-train matrix-vector multiplication (paper Eqs. 2-4).

:func:`pulsed_mvm` encodes the input values into a pulse train and hands the
whole train to a simulation engine (see :mod:`repro.backend`):

* the :class:`~repro.backend.reference.ReferenceEngine` drives every pulse
  through the crossbar as an independent noisy analog read — the faithful
  ``O(num_pulses x num_tiles)`` simulation used for validation;
* the :class:`~repro.backend.vectorized.VectorizedEngine` (default) batches
  pulses x tiles x batch into a few matmul calls with one batched noise
  draw — statistically identical because the Gaussian read noise is i.i.d.
  across pulses and tiles.  This fast path also covers
  :class:`~repro.crossbar.noise.CompositeNoise` stacks whose members are all
  additive Gaussian (gated by ``NoiseModel.is_additive_gaussian``): the
  stack's variance already folds in quadrature through ``std_for`` /
  ``read_noise_std``, so only genuinely non-Gaussian models (multiplicative
  variation, stuck-at faults) or non-ideal converters fall back to the
  batched per-tile path.  :meth:`CompositeNoise.fold` exposes the same
  collapse as an explicit equivalent model.

:func:`folded_noisy_mvm` is the closed-form single-shot equivalent for
equal-weight (thermometer) trains, used by the network-level experiments;
the test-suite verifies all paths agree.
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


def pulsed_mvm_multi(
    crossbar: Crossbar,
    values: np.ndarray,
    encoders,
    add_noise: bool = True,
    engine=None,
    rngs=None,
) -> np.ndarray:
    """K compatible scenario reads of one input batch — ``(K, ..., out)``.

    Scenario ``k`` is one (encoder, rng) pack; the result's slice ``k`` is
    bit-identical to ``pulsed_mvm(crossbar, values, encoders[k],
    rng=rngs[k])`` because each scenario keeps its own noise stream and the
    engine only deduplicates the deterministic shared work (see
    :meth:`repro.backend.engine.SimulationEngine.read_multi`).
    """
    from repro.backend import resolve_engine

    return resolve_engine(engine).read_multi(
        crossbar, values, encoders, add_noise=add_noise, rngs=rngs
    )


def bit_sliced_mvm(
    crossbar: Crossbar, values: np.ndarray, bits: int, add_noise: bool = True, engine=None
) -> np.ndarray:
    """Convenience wrapper: :func:`pulsed_mvm` with a bit-slicing encoder."""
    return pulsed_mvm(
        crossbar, values, BitSlicingEncoder(bits), add_noise=add_noise, engine=engine
    )


def thermometer_mvm(
    crossbar: Crossbar,
    values: np.ndarray,
    num_pulses: int,
    add_noise: bool = True,
    engine=None,
) -> np.ndarray:
    """Convenience wrapper: :func:`pulsed_mvm` with a thermometer encoder."""
    return pulsed_mvm(
        crossbar, values, ThermometerEncoder(num_pulses), add_noise=add_noise, engine=engine
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
