"""Loop-per-pulse reference engine (the model executed literally)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence, Tuple

import numpy as np

from repro.backend.engine import SimulationEngine, register_engine
from repro.tensor import Tensor
from repro.tensor.dtype import resolve_dtype
from repro.tensor.random import RandomState

if TYPE_CHECKING:  # avoid a circular import: crossbar -> core -> backend
    from repro.crossbar.encoding import PulseTrain


class ReferenceEngine(SimulationEngine):
    """Faithful simulation: one crossbar read per pulse, one read per tile.

    Every pulse of the train is driven through the crossbar as an independent
    noisy analog read and the weighted partial results are accumulated
    digitally — exactly the ``O(num_pulses x num_tiles)`` procedure of the
    paper's Eqs. 2-3.  Kept as the validation oracle for
    :class:`~repro.backend.vectorized.VectorizedEngine`.
    """

    name = "reference"

    def pulsed_read(
        self,
        crossbar,
        train: "PulseTrain",
        add_noise: bool = True,
        rng: Optional[RandomState] = None,
    ) -> np.ndarray:
        output = None
        for pulse_index in range(train.num_pulses):
            pulse = train.pulses[pulse_index]
            partial = crossbar.read_batch(pulse, add_noise=add_noise, rng=rng)
            weighted = train.weights[pulse_index] * partial
            output = weighted if output is None else output + weighted
        return output

    def read_multi(
        self,
        crossbar,
        values: np.ndarray,
        encoders: Sequence,
        add_noise: bool = True,
        rngs: Optional[Sequence[Optional[RandomState]]] = None,
    ) -> np.ndarray:
        # The scenario axis executed literally: K full sequential reads, one
        # per scenario, each from its own stream — the oracle the vectorized
        # engine's shared-matmul fold is bit-compared against.
        return super().read_multi(crossbar, values, encoders, add_noise=add_noise, rngs=rngs)

    def folded_read_noise(
        self,
        shape: Tuple[int, ...],
        sigma: float,
        num_pulses: float,
        rng: RandomState,
    ) -> np.ndarray:
        # Simulate the accumulation: one equal-weight draw per pulse.  A
        # fractional pulse count (PLA scaling) has no per-pulse realisation,
        # so it falls back to the closed-form folded draw.
        pulses = int(num_pulses)
        if pulses != num_pulses or pulses < 1:
            return rng.normal(0.0, sigma / np.sqrt(float(num_pulses)), size=shape)
        total = np.zeros(shape, dtype=resolve_dtype())
        for _ in range(pulses):
            total += rng.normal(0.0, sigma, size=shape)
        return total / float(pulses)

    def gbo_mixture_noise(
        self,
        alphas: Tensor,
        scales: Sequence[float],
        shape: Tuple[int, ...],
        rng: RandomState,
    ) -> Tensor:
        total: Optional[Tensor] = None
        for option_index, scale in enumerate(scales):
            eps = Tensor(rng.normal(0.0, 1.0, size=shape) * float(scale))
            term = alphas[option_index] * eps
            total = term if total is None else total + term
        return total

    def gbo_mixture_read(
        self,
        read_op: Callable[[], Tensor],
        alphas: Tensor,
        scales: Sequence[float],
        rng: RandomState,
    ) -> Tensor:
        # Eq. 5 executed literally: one crossbar read per candidate encoding,
        # each with its own accumulated noise draw, mixed by the softmax
        # weights.  O(|Omega|) reads per layer per step.
        total: Optional[Tensor] = None
        for option_index, scale in enumerate(scales):
            read = read_op()
            eps = Tensor(rng.normal(0.0, 1.0, size=read.shape) * float(scale))
            term = alphas[option_index] * (read + eps)
            total = term if total is None else total + term
        return total


REFERENCE_ENGINE = register_engine(ReferenceEngine())
