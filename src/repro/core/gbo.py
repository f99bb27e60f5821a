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

**One step ahead.**  With the weights frozen, part of every step never
touches the logits: the batch, the stem (:meth:`forward_stem`, the layers
before the first encoded one), the first encoded layer's level index and
ideal read of the base encoding, and every noise draw of the step (each
engine's :meth:`~repro.backend.engine.SimulationEngine.gbo_mixture_draws`:
one standard normal per layer on the vectorized engine, one per candidate
on the reference engine).  :meth:`GBOTrainer.train` makes that part on one
helper thread while the training thread runs the previous step's
:meth:`forward_body` (from the first layer's mixture onwards), backward and
Adam step; at most two steps are in flight.  The per-sample shape of each
layer's draws comes from a one-sample probe forward that draws nothing.

The stream contract: every noise stream and the loader see exactly the
calls a step-by-step run makes, in its order — the helper is the only
thread that draws during training — and nothing after the last step.  Only
when a step raises may the helper already have drawn the next step.  The
training thread's forward replays the prepared draws through a stand-in
for each layer's stream that refuses any draw the helper did not make, so
a divergence raises instead of shifting a stream (the helper and the
stand-in are :mod:`repro.utils.step_ahead`'s; stacked noisy evaluation
runs its second lane on the same helper).  The goldens of
``tests/core/test_gbo_golden.py`` and ``tests/core/test_gbo_pipeline.py``
hold bit for bit.  At train start :func:`repro.worker_env.keep_heap_resident`
fixes glibc's heap thresholds, without which the second thread makes glibc
trim and re-fault the main heap every step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.backend.engine import SimulationEngine
from repro.core.encoder_layer import EncodedLayerMixin, ReadMemo
from repro.core.pla import activation_grid_error
from repro.core.schedule import PulseSchedule
from repro.core.search_space import PulseScalingSpace
from repro.optim import Adam
from repro.sim import SimConfig
from repro.tensor import Tensor, no_grad
from repro.tensor import functional as F
from repro.tensor.dtype import resolve_dtype
from repro.tensor.random import RandomState
from repro.utils.logging import get_logger
from repro.utils.step_ahead import DrawReplay, StepAhead
from repro.worker_env import keep_heap_resident

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
        layers in forward order, and its forward split into
        ``forward_stem``/``forward_body`` (see
        :class:`repro.models.base.EncodedModelMixin`; e.g.
        :class:`repro.models.VGG9`).
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

        One helper thread walks ``loader`` in order, one step ahead of the
        optimisation, and prepares what no logit touches (see the module
        docstring): the stem, the first encoded layer's ideal read, and every
        noise draw of the step.  The calling thread runs the rest, from the first
        layer's mixture onwards, then backward and Adam.  Each noise stream
        sees the calls a step-by-step run makes, in its order, and none after
        the last step; only when a step raises may the helper have drawn the
        next one.  The helper is joined before ``train`` returns or raises.
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

        keep_heap_resident()
        optimizer = Adam(logits, lr=config.learning_rate)
        streams = [layer.noise_rng for layer in self._layers]
        try:
            history = self._run_steps(loader, optimizer, streams)
        finally:
            for layer, previous, stream in zip(self._layers, previous_engines, streams):
                layer._apply_engine(previous)
                layer.noise_rng = stream
                layer._read_memo = None
        result = self._finalise(history)
        self._apply_schedule(result.schedule)
        return result

    def _run_steps(self, loader, optimizer: Adam, streams) -> List[Dict[str, float]]:
        """Every optimisation step, fed by the helper thread; the history."""
        batches = (
            (epoch, inputs, targets)
            for epoch in range(self.config.epochs)
            for inputs, targets in loader
        )
        first = next(batches, None)
        if first is None:
            return []
        plan = self._draw_plan(first[1], streams)
        replays = [DrawReplay() for _ in self._layers]
        for layer, replay in zip(self._layers, replays):
            layer.noise_rng = replay
        history: List[Dict[str, float]] = []
        ahead = StepAhead(
            (self._prepare(plan, *batch) for batch in itertools.chain([first], batches)),
            window=1,
            name="gbo-prepare",
        )
        try:
            for step in ahead:
                history.append(self._step(step, optimizer, replays, len(history) + 1))
        finally:
            ahead.close()
        return history

    def _draw_plan(self, inputs: np.ndarray, streams) -> List[Optional["_LayerDraws"]]:
        """What the helper draws per layer, from a one-sample probe forward.

        The probe runs the model on ``inputs[:1]`` with every noise stream
        replaced by a :class:`_ShapeProbe`, so it draws nothing; each layer's
        first requested size gives its per-sample output shape.  A layer
        that requests nothing (sigma == 0) gets ``None``.
        """
        probes = [_ShapeProbe() for _ in self._layers]
        for layer, probe in zip(self._layers, probes):
            layer.noise_rng = probe
        try:
            with no_grad():
                self.model(Tensor(inputs[:1]))
        finally:
            for layer, stream in zip(self._layers, streams):
                layer.noise_rng = stream
        plan: List[Optional[_LayerDraws]] = []
        for layer, probe, stream in zip(self._layers, probes, streams):
            if not probe.sizes:
                plan.append(None)
                continue
            size = probe.sizes[0]
            if size[0] != 1:
                raise ValueError(
                    f"GBO needs batch-leading layer outputs; a one-sample probe drew {size}"
                )
            plan.append(_LayerDraws(layer.engine, layer._gbo_noise_scales(), size[1:], stream))
        return plan

    def _prepare(self, plan, epoch: int, inputs: np.ndarray, targets: np.ndarray) -> "_Step":
        """The logits-independent part of one step (runs on the helper thread)."""
        with no_grad():
            stem = self.model.forward_stem(Tensor(inputs))
            memo = ReadMemo()
            memo.read(self._layers[0], stem)
        draws = [
            [] if layer is None else layer.draw(stem.shape[0]) for layer in plan
        ]
        return _Step(epoch, stem, memo, targets, draws)

    def _step(self, step: "_Step", optimizer: Adam, replays, number: int) -> Dict[str, float]:
        """One optimisation step on a prepared batch; its history record."""
        config = self.config
        for replay, draws in zip(replays, step.draws):
            replay.load(draws)
        self._layers[0]._read_memo = step.memo
        optimizer.zero_grad()
        outputs = self.model.forward_body(step.stem)
        for replay in replays:
            replay.check_drained()
        ce_loss = F.cross_entropy(outputs, step.targets)
        latency = self._latency_term()
        loss = ce_loss + latency * config.gamma
        loss.backward()
        optimizer.step()
        record = {
            "epoch": float(step.epoch),
            "step": float(number),
            "loss": float(loss.data),
            "cross_entropy": float(ce_loss.data),
            "expected_latency": float(latency.data),
        }
        if config.log_every and number % config.log_every == 0:
            LOGGER.info(
                "gbo step %d: loss=%.4f ce=%.4f latency=%.2f",
                number,
                record["loss"],
                record["cross_entropy"],
                record["expected_latency"],
            )
        return record

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


@dataclass
class _LayerDraws:
    """One encoded layer's noise draws for a batch: its engine's draw half."""

    engine: SimulationEngine
    scales: List[float]
    sample_shape: Tuple[int, ...]
    stream: RandomState

    def draw(self, batch: int) -> List[np.ndarray]:
        shape = (batch,) + self.sample_shape
        return self.engine.gbo_mixture_draws(shape, self.scales, self.stream)


@dataclass
class _Step:
    """One prepared optimisation step, handed from the helper thread."""

    epoch: int
    stem: Tensor
    memo: ReadMemo
    targets: np.ndarray
    draws: List[List[np.ndarray]]


class _ShapeProbe:
    """Stands in for a noise stream in the probe forward: records, draws nothing."""

    def __init__(self) -> None:
        self.sizes: List[Tuple[int, ...]] = []

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None) -> np.ndarray:
        self.sizes.append(tuple(size))
        return np.zeros(size, dtype=resolve_dtype())


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
