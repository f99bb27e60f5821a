"""Batched engine: pulses x tiles x batch collapsed into a few numpy calls.

Two execution strategies, picked per crossbar:

* **Folded Gaussian path** — with ideal converters and (at most) additive
  Gaussian read noise (including :class:`~repro.crossbar.noise.CompositeNoise`
  stacks whose members are all additive Gaussian, which collapse to one
  equivalent variance), the accumulated read ``sum_p w_p (pulse_p @ W^T +
  eps_p)`` equals ``decode(train) @ W^T + N(0, std^2 * ||w||^2)`` where
  ``std`` is the noise of one full logical read (tile partial sums add in
  quadrature).  One matmul over the assembled tile conductances plus one
  batched noise draw replaces ``num_pulses x num_tiles`` reads; when entered
  through :meth:`VectorizedEngine.encoded_read` the pulse train is never even
  materialised — the encoder's closed-form round-trip value stands in for
  ``decode(train)``.
* **Batched tile path** — for non-Gaussian noise models or non-ideal
  converters the per-read semantics matter, so the whole pulse stack
  ``(num_pulses, batch, in_features)`` is driven through every tile in a
  single :meth:`read_batch` call (noise drawn once per tile for the whole
  stack) and accumulated with one ``tensordot`` over the pulse weights.

Both strategies are statistically identical to
:class:`~repro.backend.reference.ReferenceEngine` because the read noise is
i.i.d. across pulses and tiles; ``tests/backend/test_engines.py`` verifies
the equivalence on multi-tile crossbars.

The GBO candidate mixture of Eq. 5 folds the same way: ``sum_k alpha_k
s_k eps_k`` over i.i.d. standard normals is exactly ``N(0, sum_k (alpha_k
s_k)^2)``, so :meth:`VectorizedEngine.gbo_mixture_noise` draws one Gaussian
of the output shape instead of ``|Omega|`` of them.  The draw layout differs
from the reference's per-candidate loop, so the two engines agree in
distribution (and in expected gradient), not sample for sample;
``tests/backend/test_gbo_engine_equivalence.py`` states that contract as
moment, KS, gradient-expectation and training-level tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence, Tuple

import numpy as np

from repro.backend.engine import SimulationEngine, register_engine
from repro.tensor import Tensor
from repro.tensor.dtype import resolve_dtype
from repro.tensor.random import RandomState

if TYPE_CHECKING:  # avoid a circular import: crossbar -> core -> backend
    from repro.crossbar.encoding import PulseTrain


def _converters_ideal(config) -> bool:
    """True when ADC/DAC are pass-through for ``{-1, +1}`` pulse inputs."""
    from repro.crossbar.adc import IdealADC
    from repro.crossbar.dac import IdealDAC

    adc_ok = config.adc is None or type(config.adc) is IdealADC
    dac_ok = config.dac is None or (
        type(config.dac) is IdealDAC and config.dac.v_ref >= 1.0
    )
    return adc_ok and dac_ok


class VectorizedEngine(SimulationEngine):
    """Default engine: one batched noise draw, a handful of matmuls."""

    name = "vectorized"

    def encoded_read(
        self,
        crossbar,
        values: np.ndarray,
        encoder,
        add_noise: bool = True,
        rng: Optional[RandomState] = None,
    ) -> np.ndarray:
        # When the accumulated read folds, skip materialising the pulse train
        # entirely: the ideal part is the encoder's round-trip (quantised)
        # value and the noise scale is ||accumulation_weights||_2.
        weights = getattr(encoder, "accumulation_weights", None)
        if (
            weights is not None
            and weights.size > 0
            and hasattr(encoder, "represented_values")
            and self._can_fold(crossbar, add_noise)
        ):
            decoded = encoder.represented_values(values)
            return self._fold_decoded(crossbar, decoded, weights, add_noise, rng)
        return super().encoded_read(crossbar, values, encoder, add_noise=add_noise, rng=rng)

    def pulsed_read(
        self,
        crossbar,
        train: "PulseTrain",
        add_noise: bool = True,
        rng: Optional[RandomState] = None,
    ) -> np.ndarray:
        if self._can_fold(crossbar, add_noise):
            return self._fold_decoded(crossbar, train.decode(), train.weights, add_noise, rng)
        return self._batched_tile_read(crossbar, train, add_noise, rng)

    def read_multi(
        self,
        crossbar,
        values: np.ndarray,
        encoders: Sequence,
        add_noise: bool = True,
        rngs: Optional[Sequence[Optional[RandomState]]] = None,
    ) -> np.ndarray:
        """K scenario reads of one input batch with the shared work folded.

        On the folded Gaussian path the ideal part of every scenario's read
        is ``represented_values(values) @ W^T`` — a function of the encoder's
        quantisation grid only.  Scenarios sharing an encoding therefore
        share ONE matmul (computed by the exact same call the sequential
        path makes, so each scenario's ideal part is bit-identical), and
        only the per-scenario noise draws remain O(K).  Encoders that cannot
        fold fall back to the sequential oracle loop.
        """
        if rngs is None:
            rngs = [None] * len(encoders)
        if len(rngs) != len(encoders):
            raise ValueError(
                f"read_multi got {len(encoders)} encoders but {len(rngs)} rngs"
            )
        # Encoders build accumulation_weights on every access: read each once.
        pulse_weights = [getattr(encoder, "accumulation_weights", None) for encoder in encoders]
        # With no encoders, defer to the oracle loop, whose np.stack raises.
        foldable = bool(encoders) and self._can_fold(crossbar, add_noise) and all(
            weights is not None
            and weights.size > 0
            and hasattr(encoder, "represented_values")
            for encoder, weights in zip(encoders, pulse_weights)
        )
        if not foldable:
            return super().read_multi(crossbar, values, encoders, add_noise=add_noise, rngs=rngs)

        weights_t = crossbar.assembled_effective_weights.T
        read_std = crossbar.read_noise_std() if add_noise else 0.0
        # encoding key -> (ideal read, accumulated noise std), both computed
        # by the same expressions as _fold_decoded so every scenario stays
        # bit-identical to its sequential encoded_read.
        shared_by_encoding = {}
        output = None
        for index, (encoder, weights, rng) in enumerate(zip(encoders, pulse_weights, rngs)):
            key = (type(encoder), tuple(np.asarray(weights).ravel().tolist()))
            if key not in shared_by_encoding:
                shared_by_encoding[key] = (
                    encoder.represented_values(values) @ weights_t,
                    read_std * float(np.sqrt(np.sum(weights**2))),
                )
            ideal, accumulated_std = shared_by_encoding[key]
            if output is None:
                output = np.empty(
                    (len(encoders),) + ideal.shape,
                    dtype=np.result_type(ideal.dtype, resolve_dtype()),
                )
            if read_std > 0.0:
                scenario_rng = rng or crossbar.rng
                noise = scenario_rng.normal(0.0, accumulated_std, size=ideal.shape)
                np.add(ideal, noise, out=output[index])
            else:
                output[index] = ideal
        return output

    @staticmethod
    def _can_fold(crossbar, add_noise: bool) -> bool:
        if not _converters_ideal(crossbar.config):
            return False
        if not add_noise:
            return True
        # Covers NoNoise, GaussianReadNoise and CompositeNoise stacks whose
        # members are all additive Gaussian (their variances fold in
        # quadrature through read_noise_std / std_for).
        return crossbar.config.noise.is_additive_gaussian

    @staticmethod
    def _fold_decoded(
        crossbar, decoded: np.ndarray, pulse_weights: np.ndarray, add_noise: bool, rng
    ) -> np.ndarray:
        output = decoded @ crossbar.assembled_effective_weights.T
        if add_noise:
            read_std = crossbar.read_noise_std()
            if read_std > 0.0:
                # sum_p w_p eps_p with eps_p ~ N(0, read_std^2) i.i.d.
                accumulated_std = read_std * float(np.sqrt(np.sum(pulse_weights**2)))
                rng = rng or crossbar.rng
                output = output + rng.normal(0.0, accumulated_std, size=output.shape)
        return output

    @staticmethod
    def _batched_tile_read(crossbar, train: "PulseTrain", add_noise: bool, rng) -> np.ndarray:
        stack = crossbar.read_batch(train.pulses, add_noise=add_noise, rng=rng)
        return np.tensordot(train.weights, stack, axes=(0, 0))

    def folded_read_noise(
        self,
        shape: Tuple[int, ...],
        sigma: float,
        num_pulses: float,
        rng: RandomState,
    ) -> np.ndarray:
        return rng.normal(0.0, sigma / np.sqrt(float(num_pulses)), size=shape)

    def gbo_mixture_noise(
        self,
        alphas: Tensor,
        scales: Sequence[float],
        shape: Tuple[int, ...],
        rng: RandomState,
    ) -> Tensor:
        # sum_k alpha_k scale_k eps_k with i.i.d. eps_k ~ N(0, 1) is exactly
        # N(0, sum_k (alpha_k scale_k)^2), so one standard-normal draw scaled
        # by that differentiable deviation replaces the |Omega| draws; the
        # expected gradient w.r.t. alpha is unchanged (reparameterisation).
        # The sqrt needs a positive sum: the layers route sigma = 0 around
        # the mixture, so every scale reaching here is > 0.  The scales take
        # the softmax weights' dtype, which follows the compute-dtype policy.
        scales_arr = np.asarray(scales, dtype=alphas.data.dtype)
        std = ((alphas * Tensor(scales_arr)) ** 2).sum().sqrt()
        return std * Tensor(rng.normal(0.0, 1.0, size=tuple(shape)))

    def gbo_mixture_read(
        self,
        read_op: Callable[[], Tensor],
        alphas: Tensor,
        scales: Sequence[float],
        rng: RandomState,
    ) -> Tensor:
        # The candidate reads only differ in their noise, so the |Omega|
        # per-candidate reads of the reference loop collapse to one read plus
        # one folded mixture draw: sum_k alpha_k (read + n_k) =
        # sum(alphas) * read + sum_k alpha_k n_k.  The explicit sum(alphas)
        # factor (= 1 for softmax weights) keeps the gradient graph of the
        # reference loop, where the read reaches the logits through every
        # alpha_k.
        read = read_op()
        noise = self.gbo_mixture_noise(alphas, scales, read.shape, rng)
        return alphas.sum() * read + noise


VECTORIZED_ENGINE = register_engine(VectorizedEngine())
