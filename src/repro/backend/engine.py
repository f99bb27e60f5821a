"""The :class:`SimulationEngine` interface and engine registry.

An engine answers three questions for the rest of the library:

1. how to execute a full pulse-train crossbar read (:meth:`pulsed_read`),
2. how to sample the accumulated read noise of a folded layer forward
   (:meth:`folded_read_noise`), and
3. how to evaluate the full GBO candidate mixture of Eq. 5 — the ideal
   crossbar read of every candidate encoding plus its reparameterised
   noise — in one differentiable forward (:meth:`gbo_mixture_read`).  It is
   two halves:
   :meth:`gbo_mixture_draws` makes the random draws, which depend only on
   the output shape and the candidate scales, and
   :meth:`gbo_mixture_combine` mixes them with the reads under the softmax
   weights.  GBO training makes the draws one step ahead on a helper thread
   (see :mod:`repro.core.gbo`).

Implementations must be *statistically* interchangeable: for every method the
returned distribution is fixed by the paper's model, only the number of numpy
calls (and hence the draw layout) may differ.  The equivalence is enforced by
``tests/backend/test_engines.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

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
        pulse-by-pulse or as one folded draw.  The result is a freshly
        allocated array owned by the caller, which may write into it.
        """
        raise NotImplementedError

    def gbo_mixture_draws(
        self,
        shape: Tuple[int, ...],
        scales: Sequence[float],
        rng: RandomState,
    ) -> List[np.ndarray]:
        """The draw half of :meth:`gbo_mixture_read`: its ``rng`` calls.

        Returns the arrays :meth:`gbo_mixture_combine` mixes, drawn from
        ``rng`` with the very calls, in the very order, that
        :meth:`gbo_mixture_read` makes for an output of ``shape``.  Nothing
        here depends on the logits or on the read, so the draws can be made
        ahead of the forward.
        """
        raise NotImplementedError

    def gbo_mixture_combine(
        self,
        read: Tensor,
        read_op: Callable[[], Tensor],
        alphas: Tensor,
        scales: Sequence[float],
        draws: Sequence[np.ndarray],
    ) -> Tensor:
        """The combine half of :meth:`gbo_mixture_read`.

        ``read`` is the first ideal read; an engine that reads once per
        candidate calls ``read_op`` for each further one.  ``draws`` are
        :meth:`gbo_mixture_draws` of ``read.shape``; they are not written.
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
        (reference) or a single read plus one folded noise draw: with
        i.i.d. standard-normal ``eps_k`` the noise ``sum_k alpha_k scale_k
        eps_k`` is exactly ``N(0, sum_k (alpha_k * scale_k)^2)``
        (vectorized).  The two draw different samples from ``rng`` but the
        same mixture distribution, and in expectation the same gradient,
        which reaches the logits through ``alphas`` either way.

        The first read fixes the output shape; then come the draws
        (:meth:`gbo_mixture_draws`) and the mixture
        (:meth:`gbo_mixture_combine`).  Reads touch no random stream, so
        this order draws exactly what a read-draw-read-draw loop would.

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
        read = read_op()
        draws = self.gbo_mixture_draws(read.shape, scales, rng)
        return self.gbo_mixture_combine(read, read_op, alphas, scales, draws)

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
