"""Gradient-based Bit-encoding Optimisation (GBO, Section III-A).

GBO runs after pre-training: the network weights are frozen and each encoded
layer receives a vector of learnable logits ``lambda_k`` over the pulse
scaling space Omega.  During GBO training every forward pass mixes the read
noise of all candidate encodings with the softmax weights ``alpha_k``
(Eq. 5) so the classification loss "feels" how harmful each candidate's
noise is in that layer; the latency regulariser ``gamma * sum alpha_k n_k p``
pushes towards short encodings (Eq. 6).  The candidate mixture is executed
by the layers' :class:`~repro.backend.engine.SimulationEngine` — one crossbar
read and one noise draw per candidate on the reference engine; on the
vectorized engine a single read plus one Gaussian draw, because the mixture
``sum_k alpha_k s_k eps_k`` of independent normals is exactly
``N(0, sum_k (alpha_k s_k)^2)`` (the reparameterisation trick).  The two
engines therefore agree in distribution and in expected gradient, not
sample for sample; ``tests/backend/test_gbo_engine_equivalence.py`` states
that contract statistically.  After training, each layer selects
the candidate with the maximum logit (Eq. 7's argmax rule) and the resulting
heterogeneous :class:`~repro.core.schedule.PulseSchedule` is used for noisy
inference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.encoder_layer import EncodedLayerMixin
from repro.core.pla import activation_grid_error
from repro.core.schedule import PulseSchedule
from repro.core.search_space import PulseScalingSpace
from repro.optim import Adam
from repro.sim import SimConfig
from repro.tensor import Tensor
from repro.tensor import functional as F
from repro.utils.logging import get_logger

LOGGER = get_logger("repro.gbo")


@dataclass
class GBOConfig:
    """Hyper-parameters of the GBO stage.

    Attributes
    ----------
    space:
        Candidate pulse scaling space Omega.
    gamma:
        Latency/accuracy trade-off weight of Eq. 6.  Larger gamma favours
        shorter (cheaper, noisier) encodings; the two GBO rows of Table I
        correspond to two gamma settings.
    learning_rate:
        Adam learning rate for the logits (paper: 1e-4).
    epochs:
        Number of passes over the GBO training loader (paper: 10).
    log_every:
        Emit a progress log line every this many optimisation steps
        (0 disables logging).
    """

    space: PulseScalingSpace = field(default_factory=PulseScalingSpace)
    gamma: float = 1e-3
    learning_rate: float = 1e-4
    epochs: int = 10
    log_every: int = 0

    def __post_init__(self) -> None:
        if self.gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {self.gamma}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be positive, got {self.epochs}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.log_every < 0:
            raise ValueError(
                f"log_every must be non-negative (0 disables logging), got {self.log_every}"
            )


@dataclass
class GBOResult:
    """Outcome of a GBO run.

    Attributes
    ----------
    schedule:
        Per-layer pulse counts selected by the argmax rule.
    logits:
        Final logits of each layer (one array per encoded layer).
    alphas:
        Final softmax importance weights of each layer.
    history:
        Per-step record of the loss terms.
    pla_errors:
        Per-layer PLA representation error of the *selected* pulse count
        (mean absolute re-encoding error over the layer's activation grid).
        The Eq. 5 objective mixes candidate noise only, so GBO is blind to
        this error — it is measured and surfaced here at selection time.
    """

    schedule: PulseSchedule
    logits: List[np.ndarray]
    alphas: List[np.ndarray]
    history: List[Dict[str, float]]
    pla_errors: List[float] = field(default_factory=list)

    @property
    def average_pulses(self) -> float:
        """Average pulse count of the selected schedule (latency proxy)."""
        return self.schedule.average_pulses


class GBOTrainer:
    """Optimises per-layer bit-encoding logits on a frozen, pre-trained model.

    Parameters
    ----------
    model:
        A model exposing ``encoded_layers()`` returning the crossbar-mapped
        layers in forward order (e.g. :class:`repro.models.VGG9`).
    config:
        GBO hyper-parameters.
    sim:
        Simulation config whose ``engine`` is pinned on every encoded layer
        for the duration of training; each GBO forward evaluates the Eq. 5
        candidate mixture through
        :meth:`~repro.backend.engine.SimulationEngine.gbo_mixture_read` of
        that engine.  ``sim=None`` (or ``sim.engine is None``) keeps
        whatever engine each layer already uses.  Noise/pulse state is taken
        from the model's current configuration — apply a config via
        :func:`repro.sim.apply_config` (or use the :mod:`repro.api` facade)
        beforehand.
    """

    def __init__(
        self,
        model,
        config: Optional[GBOConfig] = None,
        sim: Optional[SimConfig] = None,
    ):
        self.model = model
        self.config = config or GBOConfig()
        self.sim = sim
        self._layers: List[EncodedLayerMixin] = list(model.encoded_layers())
        if not self._layers:
            raise ValueError("model has no encoded layers to optimise")

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train(self, loader) -> GBOResult:
        """Run the GBO optimisation and return the selected schedule.

        The model's weights are frozen (Section III-A: "we fix the weights of
        networks and only train learnable parameters"); batch-normalisation
        statistics are also frozen by switching the model to eval mode, while
        every encoded layer runs in ``gbo`` forward mode so the mixture noise
        of Eq. 5 is injected.
        """
        config = self.config
        self.model.eval()
        self.model.freeze()
        logits = [layer.enable_gbo(config.space) for layer in self._layers]
        for layer in self._layers:
            layer._apply_mode("gbo")

        # Pin the requested engine for the duration of training only; the
        # layers' previous pins (possibly none) are restored afterwards so
        # later evaluations keep their own backend.
        engine = self.sim.engine if self.sim is not None else None
        previous_engines = [layer._engine for layer in self._layers]
        if engine is not None:
            for layer in self._layers:
                layer._apply_engine(engine)

        optimizer = Adam(logits, lr=config.learning_rate)
        history: List[Dict[str, float]] = []
        step = 0
        try:
            for epoch in range(config.epochs):
                for inputs, targets in loader:
                    optimizer.zero_grad()
                    outputs = self.model(Tensor(inputs))
                    ce_loss = F.cross_entropy(outputs, targets)
                    latency = self._latency_term()
                    loss = ce_loss + latency * config.gamma
                    loss.backward()
                    optimizer.step()
                    step += 1
                    record = {
                        "epoch": float(epoch),
                        "step": float(step),
                        "loss": float(loss.data),
                        "cross_entropy": float(ce_loss.data),
                        "expected_latency": float(latency.data),
                    }
                    history.append(record)
                    if config.log_every and step % config.log_every == 0:
                        LOGGER.info(
                            "gbo step %d: loss=%.4f ce=%.4f latency=%.2f",
                            step,
                            record["loss"],
                            record["cross_entropy"],
                            record["expected_latency"],
                        )
        finally:
            for layer, previous in zip(self._layers, previous_engines):
                layer._apply_engine(previous)
        result = self._finalise(history)
        self._apply_schedule(result.schedule)
        return result

    def _latency_term(self) -> Tensor:
        """Differentiable total expected latency ``sum_l sum_k alpha_k n_k p``."""
        total: Optional[Tensor] = None
        for layer in self._layers:
            term = layer.gbo_expected_latency()
            total = term if total is None else total + term
        return total

    def _finalise(self, history: List[Dict[str, float]]) -> GBOResult:
        logits = [np.array(layer.gbo_logits.data, copy=True) for layer in self._layers]
        alphas = [np.array(layer.gbo_alphas().data, copy=True) for layer in self._layers]
        schedule = PulseSchedule([layer.gbo_selected_pulses() for layer in self._layers])
        pla_errors = self._selection_pla_errors(schedule)
        return GBOResult(
            schedule=schedule,
            logits=logits,
            alphas=alphas,
            history=history,
            pla_errors=pla_errors,
        )

    def _selection_pla_errors(self, schedule: PulseSchedule) -> List[float]:
        """PLA representation error each layer pays for its selected pulses.

        Measured over the layer's exact activation grid (the levels its
        quantiser can emit) at selection time, because the Eq. 5 objective
        mixes candidate *noise* only and never sees this re-encoding error —
        the mechanism behind the documented failure mode where GBO shortens
        the least noise-sensitive layer to 4 pulses and pays an unmodelled
        accuracy cost at evaluation.
        """
        errors: List[float] = []
        for index, (layer, pulses) in enumerate(zip(self._layers, schedule)):
            levels = layer.act_quantizer.levels
            error = activation_grid_error(levels, pulses, mode=layer.pla_mode)
            errors.append(error)
            LOGGER.info(
                "gbo layer %d selected %d pulses: PLA representation error "
                "%.4f over its %d-level grid (Eq. 5 models candidate noise "
                "only and is blind to this error)",
                index,
                pulses,
                error,
                levels,
            )
        return errors

    def _apply_schedule(self, schedule: PulseSchedule) -> None:
        """Configure the model for noisy inference with the selected schedule."""
        for layer, pulses in zip(self._layers, schedule):
            layer._apply_mode("noisy")
            layer._apply_pulses(pulses)


def apply_schedule(model, schedule: PulseSchedule) -> None:
    """Apply an explicit per-layer pulse schedule to a model's encoded layers.

    Utility used by the PLA baselines of Table I, where the schedule is
    uniform rather than learned.
    """
    layers = list(model.encoded_layers())
    if len(layers) != len(schedule):
        raise ValueError(
            f"schedule has {len(schedule)} entries but the model exposes {len(layers)} "
            "encoded layers"
        )
    for layer, pulses in zip(layers, schedule):
        layer._apply_mode("noisy")
        layer._apply_pulses(pulses)
