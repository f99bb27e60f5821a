"""The :class:`SimulationEngine` interface and engine registry.

An engine answers four questions for the rest of the library:

1. how to execute a full pulse-train crossbar read (:meth:`pulsed_read`),
2. how to sample the accumulated read noise of a folded layer forward
   (:meth:`folded_read_noise`),
3. how to sample the GBO mixture noise of Eq. 5
   (:meth:`gbo_mixture_noise`), and
4. how to evaluate the full GBO candidate mixture — the ideal crossbar read
   of every candidate encoding plus its reparameterised noise — in one
   differentiable forward (:meth:`gbo_mixture_read`).

Implementations must be *statistically* interchangeable: for every method the
returned distribution is fixed by the paper's model, only the number of numpy
calls (and hence the draw layout) may differ.  The equivalence is enforced by
``tests/backend/test_engines.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.sim.config import resolve_engine_name
from repro.tensor import Tensor
from repro.tensor.random import RandomState

if TYPE_CHECKING:  # avoid a circular import: crossbar -> core -> backend
    from repro.crossbar.encoding import PulseTrain

EngineLike = Union["SimulationEngine", str, None]


class SimulationEngine:
    """Strategy interface for executing noisy crossbar reads."""

    #: Registry name of the engine (set by subclasses).
    name: str = "abstract"

    def encoded_read(
        self,
        crossbar,
        values: np.ndarray,
        encoder,
        add_noise: bool = True,
        rng: Optional[RandomState] = None,
    ) -> np.ndarray:
        """Encode ``values`` with ``encoder`` and read the resulting train.

        The default implementation materialises the pulse train and defers to
        :meth:`pulsed_read`; engines may shortcut the encoding when the
        accumulated result has a closed form.
        """
        train = encoder.encode(values)
        if train.num_pulses == 0:
            raise ValueError(
                f"encoder {encoder!r} produced an empty pulse train; at least "
                "one pulse is required to perform a crossbar read"
            )
        return self.pulsed_read(crossbar, train, add_noise=add_noise, rng=rng)

    def pulsed_read(
        self,
        crossbar,
        train: "PulseTrain",
        add_noise: bool = True,
        rng: Optional[RandomState] = None,
    ) -> np.ndarray:
        """Accumulate the weighted noisy reads of every pulse in ``train``.

        Parameters
        ----------
        crossbar:
            A :class:`~repro.crossbar.array.CrossbarArray` or
            :class:`~repro.crossbar.tiling.TiledCrossbar`.
        train:
            Pulse train of shape ``(num_pulses, *batch, in_features)``.
        add_noise:
            Disable to obtain the ideal accumulated result.
        rng:
            Random state for noise sampling; defaults to the crossbar's own.
        """
        raise NotImplementedError

    def read_multi(
        self,
        crossbar,
        values: np.ndarray,
        encoders: Sequence,
        add_noise: bool = True,
        rngs: Optional[Sequence[Optional[RandomState]]] = None,
    ) -> np.ndarray:
        """One input batch, one weight set, K scenario reads — ``(K, ...)``.

        Scenario ``k`` is defined by ``encoders[k]`` (pulse count / schedule /
        PLA re-encoding are baked into the encoder) and draws its noise from
        ``rngs[k]`` — its *own* hash-derived stream, which is what makes the
        batched result bit-identical per scenario to K sequential
        :meth:`encoded_read` calls: per-scenario streams are never merged,
        only the deterministic shared work (encoding round-trip, ideal
        matmul) is deduplicated by engines that can prove it safe.

        The default implementation *is* the sequential loop — the bit-exact
        oracle every override must match sample for sample.
        """
        if rngs is None:
            rngs = [None] * len(encoders)
        if len(rngs) != len(encoders):
            raise ValueError(
                f"read_multi got {len(encoders)} encoders but {len(rngs)} rngs"
            )
        outputs = [
            self.encoded_read(crossbar, values, encoder, add_noise=add_noise, rng=rng)
            for encoder, rng in zip(encoders, rngs)
        ]
        return np.stack(outputs, axis=0)

    def folded_read_noise(
        self,
        shape: Tuple[int, ...],
        sigma: float,
        num_pulses: float,
        rng: RandomState,
    ) -> np.ndarray:
        """Additive noise of ``num_pulses`` accumulated equal-weight reads.

        Averaging ``p`` independent ``N(0, sigma^2)`` reads yields
        ``N(0, sigma^2 / p)`` (paper Eq. 4); engines may realise the sum
        pulse-by-pulse or as one folded draw.
        """
        raise NotImplementedError

    def gbo_mixture_noise(
        self,
        alphas: Tensor,
        scales: Sequence[float],
        shape: Tuple[int, ...],
        rng: RandomState,
    ) -> Tensor:
        """Reparameterised GBO mixture ``sum_k alpha_k * scale_k * eps_k``.

        ``alphas`` are the softmax importance weights (a differentiable
        :class:`Tensor`); gradients must flow from the returned noise back to
        the logits.  With i.i.d. standard-normal ``eps_k`` the mixture is
        exactly ``N(0, sum_k (alpha_k * scale_k)^2)``, so an engine may draw
        one sample per candidate (reference) or one draw scaled by that
        deviation (vectorized).  The two are equal in distribution and in
        expected gradient, not sample for sample.
        """
        raise NotImplementedError

    def gbo_mixture_read(
        self,
        read_op: Callable[[], Tensor],
        alphas: Tensor,
        scales: Sequence[float],
        rng: RandomState,
    ) -> Tensor:
        """Softmax mixture of per-candidate noisy crossbar reads (Eq. 5).

        Evaluates ``sum_k alpha_k * (read_k + scale_k * eps_k)`` where
        ``read_op`` performs one ideal (noise-free) crossbar read of the
        layer and ``scale_k`` is the accumulated noise deviation of candidate
        encoding ``k``.  Because ``read_op`` is deterministic and the noises
        are i.i.d. Gaussian, an engine may execute one read per candidate
        (reference) or a single read plus one folded noise draw
        (vectorized, see :meth:`gbo_mixture_noise`).  The two draw different
        samples from ``rng`` but the same mixture distribution, and gradients
        reach the logits through ``alphas`` either way.

        Parameters
        ----------
        read_op:
            Zero-argument callable returning the ideal layer output as a
            differentiable :class:`Tensor`.  Must be re-invocable: the
            reference engine calls it once per candidate.
        alphas:
            Softmax importance weights over the candidate space Omega.
        scales:
            Per-candidate accumulated noise standard deviations
            ``sigma / sqrt(n_k p)``.
        rng:
            Random state for the candidate noise draws.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


_REGISTRY: Dict[str, SimulationEngine] = {}


def register_engine(engine: SimulationEngine) -> SimulationEngine:
    """Add an engine instance to the registry under its ``name``."""
    _REGISTRY[engine.name] = engine
    return engine


def available_engines() -> Tuple[str, ...]:
    """Names of all registered engines."""
    return tuple(sorted(_REGISTRY))


def get_engine(name: str) -> SimulationEngine:
    """Look up a registered engine by name."""
    try:
        return _REGISTRY[name]
    except KeyError as error:
        raise KeyError(
            f"unknown backend {name!r}; available backends: {sorted(_REGISTRY)}"
        ) from error


def resolve_engine(engine: EngineLike) -> SimulationEngine:
    """Coerce an engine instance / name / ``None`` into an engine.

    ``None`` takes the unpinned, profile-less answer of
    :func:`repro.sim.resolve_engine_name`.
    """
    if engine is None:
        engine = resolve_engine_name()
    if isinstance(engine, str):
        return get_engine(engine)
    return engine
