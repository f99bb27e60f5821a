"""Batched engine: pulses x tiles x batch collapsed into a few numpy calls.

Every crossbar read folds.  The read noise is additive Gaussian and i.i.d.
across pulses and tiles, so the accumulated read ``sum_p w_p (pulse_p @ W^T
+ eps_p)`` equals ``decode(train) @ W^T + N(0, std^2 * ||w||^2)``, where
``std`` is the noise of one full logical read (tile partial sums add in
quadrature).  One matmul over the assembled tile weights plus one batched
noise draw replaces ``num_pulses x num_tiles`` reads; when entered through
:meth:`VectorizedEngine.encoded_read` the pulse train is never even
materialised — the encoder's closed-form round-trip value stands in for
``decode(train)``.  The result is statistically identical to
:class:`~repro.backend.reference.ReferenceEngine`;
``tests/backend/test_engines.py`` verifies the equivalence on multi-tile
crossbars.

The GBO candidate mixture of Eq. 5 folds the same way: ``sum_k alpha_k
s_k eps_k`` over i.i.d. standard normals is exactly ``N(0, sum_k (alpha_k
s_k)^2)``, so :meth:`VectorizedEngine.gbo_mixture_draws` draws one Gaussian
of the output shape instead of ``|Omega|`` of them, and
:meth:`VectorizedEngine.gbo_mixture_combine` scales it by that deviation.
The draw layout differs from the reference's per-candidate loop, so the two
engines agree in distribution (and in expected gradient), not sample for
sample; ``tests/backend/test_gbo_engine_equivalence.py`` states that
contract as moment, KS, gradient-expectation and training-level tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend.engine import SimulationEngine, register_engine
from repro.tensor import Tensor
from repro.tensor.random import RandomState

if TYPE_CHECKING:  # avoid a circular import: crossbar -> core -> backend
    from repro.crossbar.encoding import PulseTrain


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
        # Skip materialising the pulse train entirely: the ideal part is the
        # encoder's round-trip (quantised) value and the noise scale is
        # ||accumulation_weights||_2.  An empty train cannot be read; the base
        # class encodes it and raises.
        weights = getattr(encoder, "accumulation_weights", None)
        if weights is None or weights.size == 0:
            return super().encoded_read(crossbar, values, encoder, add_noise=add_noise, rng=rng)
        decoded = encoder.represented_values(values)
        return self._fold_decoded(crossbar, decoded, weights, add_noise, rng)

    def pulsed_read(
        self,
        crossbar,
        train: "PulseTrain",
        add_noise: bool = True,
        rng: Optional[RandomState] = None,
    ) -> np.ndarray:
        return self._fold_decoded(crossbar, train.decode(), train.weights, add_noise, rng)

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

    def folded_read_noise(
        self,
        shape: Tuple[int, ...],
        sigma: float,
        num_pulses: float,
        rng: RandomState,
    ) -> np.ndarray:
        return rng.normal(0.0, sigma / np.sqrt(float(num_pulses)), size=shape)

    def gbo_mixture_draws(
        self,
        shape: Tuple[int, ...],
        scales: Sequence[float],
        rng: RandomState,
    ) -> List[np.ndarray]:
        # One standard normal of the output shape for the whole mixture.
        return [rng.normal(0.0, 1.0, size=tuple(shape))]

    @staticmethod
    def _scaled_noise(alphas: Tensor, scales: Sequence[float], eps: np.ndarray) -> Tensor:
        # sum_k alpha_k scale_k eps_k with i.i.d. eps_k ~ N(0, 1) is exactly
        # N(0, sum_k (alpha_k scale_k)^2), so one standard-normal draw scaled
        # by that differentiable deviation replaces the |Omega| draws; the
        # expected gradient w.r.t. alpha is unchanged (reparameterisation).
        # The sqrt needs a positive sum: the layers route sigma = 0 around
        # the mixture, so every scale reaching here is > 0.  The scales take
        # the softmax weights' dtype, which follows the compute-dtype policy.
        scales_arr = np.asarray(scales, dtype=alphas.data.dtype)
        std = ((alphas * Tensor(scales_arr)) ** 2).sum().sqrt()
        return std * Tensor(eps)

    def gbo_mixture_combine(
        self,
        read: Tensor,
        read_op: Callable[[], Tensor],
        alphas: Tensor,
        scales: Sequence[float],
        draws: Sequence[np.ndarray],
    ) -> Tensor:
        # The candidate reads only differ in their noise, so the |Omega|
        # per-candidate reads of the reference loop collapse to one read plus
        # one folded mixture draw: sum_k alpha_k (read + n_k) =
        # sum(alphas) * read + sum_k alpha_k n_k.  The explicit sum(alphas)
        # factor (= 1 for softmax weights) keeps the gradient graph of the
        # reference loop, where the read reaches the logits through every
        # alpha_k.
        (eps,) = draws
        return alphas.sum() * read + self._scaled_noise(alphas, scales, eps)


VECTORIZED_ENGINE = register_engine(VectorizedEngine())
