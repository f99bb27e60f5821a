"""``repro.api`` — the paper's pipeline as a composable facade.

The DATE 2022 pipeline (pretrain → PLA → GBO → NIA → evaluate) is exposed
as five stage functions.  Each stage takes ``(state, SimConfig)`` and
returns a plain artifact; no stage leaves hidden configuration behind on
the model — every stage resets the shared model to the clean pre-trained
baseline before returning, so stages compose in any order through their
artifacts alone::

    import repro
    from repro.sim import SimConfig

    state = repro.pretrain("smoke")
    noisy = SimConfig.for_profile(state.profile, mode="noisy",
                                  noise_sigma=6.0, pulses=8)

    baseline = repro.evaluate(state, noisy)
    gbo = repro.run_gbo(state, noisy, gamma=1e-3)
    tuned = repro.evaluate(state, noisy.with_changes(pulses=gbo.schedule))
    nia = repro.run_nia(state, noisy)
    synergy = repro.run_gbo(state, noisy, gamma=1e-3, weights=nia.weights)

Configuration flows exclusively through :class:`repro.sim.SimConfig`
(engine, mode, pulses, noise level and convention, PLA rounding, seed
policy); hyper-parameters not covered by a config (epochs, learning rates,
gamma) default to the state's profile.

Every stage draws its data from loaders built for that call
(:func:`~repro.experiments.common.build_loaders`, whose shuffle streams
start from the profile seed), so a stage's result depends only on its
arguments and the seed: two identical ``run_gbo`` calls on one state,
each after the same ``seed_everything``, return the same schedule.

These stages are the pipeline's one implementation.  The scenario
executors behind Tables I and II, Fig. 2, ablations A1 and A3 and
``api_eval`` (the request type of ``repro.serve``) run their cells through
:func:`evaluate`, :func:`run_gbo` and :func:`run_nia` on the
:class:`PipelineState` their :class:`~repro.experiments.runner.scenarios.ScenarioContext`
hands them.  What turns an :func:`evaluate` call into a scenario
(``eval_scenario_spec``) and stacks many of them into one evaluation
(``execute_api_eval_batch``) is runner code, in
:mod:`repro.experiments.runner.scenarios`; this module imports nothing
from the runner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.gbo import GBOConfig, GBOResult, GBOTrainer
from repro.core.nia import NIAConfig, NIATrainer
from repro.core.pla import activation_grid_error
from repro.core.search_space import PulseScalingSpace
from repro.experiments.common import ExperimentBundle, build_loaders, get_pretrained_bundle
from repro.experiments.profiles import ExperimentProfile, get_profile
from repro.sim import SimConfig, Session, apply_config
from repro.training.evaluate import evaluate_accuracy


# ---------------------------------------------------------------------------
# Pipeline state
# ---------------------------------------------------------------------------
@dataclass
class PipelineState:
    """Everything the pipeline stages operate on.

    Wraps the pre-trained :class:`~repro.experiments.common.ExperimentBundle`
    (model + clean accuracy) together with the state's base
    :class:`SimConfig` — the config stages fall back to when called with
    ``sim=None`` — and the profile the stages read their hyper-parameters
    and data from.  The profile may differ from the bundle's in fields the
    pre-trained weights do not depend on (epochs, learning rates, test-set
    size), as a scenario spec's overrides do.

    Each loader property builds a fresh loader on every access, so no
    shuffle stream carries over from one stage to the next.
    """

    bundle: ExperimentBundle
    sim: SimConfig
    profile: ExperimentProfile

    @property
    def model(self):
        return self.bundle.model

    @property
    def clean_accuracy(self) -> float:
        return self.bundle.clean_accuracy

    @property
    def train_loader(self):
        return build_loaders(self.profile)[0]

    @property
    def test_loader(self):
        return build_loaders(self.profile)[1]

    @property
    def gbo_loader(self):
        return build_loaders(self.profile)[2]


# ---------------------------------------------------------------------------
# Stage artifacts
# ---------------------------------------------------------------------------
@dataclass
class EvaluationResult:
    """Outcome of one :func:`evaluate` stage."""

    accuracy: float
    per_repeat: Tuple[float, ...]
    sim: SimConfig


@dataclass
class GBOArtifact:
    """Outcome of one :func:`run_gbo` stage."""

    schedule: Tuple[int, ...]
    average_pulses: float
    pla_errors: Tuple[float, ...]
    gamma: float
    sim: SimConfig
    result: GBOResult = field(repr=False)


@dataclass
class NIAArtifact:
    """Outcome of one :func:`run_nia` stage.

    ``weights`` holds the fine-tuned parameters/buffers (restricted to the
    pre-trained snapshot's keys) — pass them as ``weights=`` to a later
    stage to build on the adapted network.
    """

    weights: Dict[str, np.ndarray] = field(repr=False)
    history: List[Dict[str, float]] = field(repr=False, default_factory=list)
    final_loss: float = float("nan")
    sim: SimConfig = field(default_factory=SimConfig)


@dataclass
class PLACalibrationRow:
    """PLA representation error of one layer at one candidate pulse count."""

    layer_index: int
    layer_name: str
    num_pulses: int
    error: float


@dataclass
class PLACalibration:
    """Per-layer PLA representation errors over a candidate pulse sweep."""

    rows: List[PLACalibrationRow]
    pulse_counts: Tuple[int, ...]

    def error(self, layer_index: int, num_pulses: int) -> float:
        for row in self.rows:
            if row.layer_index == layer_index and row.num_pulses == num_pulses:
                return row.error
        raise KeyError(f"no calibration row for layer {layer_index} at {num_pulses} pulses")

    def exact_counts(self, layer_index: int) -> Tuple[int, ...]:
        """Pulse counts representing this layer's activation grid exactly."""
        return tuple(
            row.num_pulses
            for row in self.rows
            if row.layer_index == layer_index and row.error < 1e-12
        )

    def format_table(self) -> str:
        header = f"{'layer':<12} " + " ".join(f"p={p:<6d}" for p in self.pulse_counts)
        by_layer: Dict[int, List[PLACalibrationRow]] = {}
        for row in self.rows:
            by_layer.setdefault(row.layer_index, []).append(row)
        lines = [header]
        for index in sorted(by_layer):
            rows = sorted(by_layer[index], key=lambda r: r.num_pulses)
            cells = " ".join(f"{row.error:<8.4f}" for row in rows)
            lines.append(f"{rows[0].layer_name:<12} {cells}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------
def pretrain(
    profile: Any = None,
    sim: Optional[SimConfig] = None,
    force_retrain: bool = False,
) -> PipelineState:
    """Stage 1: the pre-trained binary-weight network (cached per profile).

    ``profile`` may be a profile name, an
    :class:`~repro.experiments.profiles.ExperimentProfile`, or ``None`` (the
    default profile).  ``sim`` becomes the state's base config; ``None``
    derives one from the profile (:meth:`SimConfig.for_profile`), which
    resolves the engine through the one precedence rule.
    """
    if not isinstance(profile, ExperimentProfile):
        profile = get_profile(profile)
    bundle = get_pretrained_bundle(profile, force_retrain=force_retrain)
    if sim is None:
        sim = SimConfig.for_profile(profile)
    elif sim.engine is not None:
        apply_config(bundle.model, SimConfig(engine=sim.engine), profile)
    return PipelineState(bundle=bundle, sim=sim, profile=profile)


def _stage_model(state: PipelineState, weights: Optional[Dict[str, np.ndarray]]):
    """The state's model at the stage's starting point: pre-trained weights
    (optionally overlaid with an earlier stage's artifact), gradients on,
    clean config."""
    model = state.model
    state.bundle.reset()
    if weights:
        model.load_state_dict(dict(weights), strict=False)
    return model


def evaluate(
    state: PipelineState,
    sim: Optional[SimConfig] = None,
    weights: Optional[Dict[str, np.ndarray]] = None,
    num_repeats: int = 1,
) -> EvaluationResult:
    """Stage 5: accuracy of the (optionally overlaid) network under ``sim``.

    Runs inside a :class:`~repro.sim.Session`, so the configuration is
    scoped to the evaluation; the shared model is reset afterwards.
    """
    if num_repeats < 1:
        raise ValueError(f"num_repeats must be positive, got {num_repeats}")
    sim = sim if sim is not None else state.sim
    model = _stage_model(state, weights)
    loader = state.test_loader
    with Session(model, sim, state.profile):
        per_repeat = tuple(evaluate_accuracy(model, loader) for _ in range(num_repeats))
    state.bundle.reset()
    return EvaluationResult(
        accuracy=float(np.mean(per_repeat)), per_repeat=per_repeat, sim=sim
    )


def calibrate_pla(
    state: PipelineState,
    sim: Optional[SimConfig] = None,
    pulse_counts: Sequence[int] = (4, 6, 8, 10, 12, 14, 16),
) -> PLACalibration:
    """Stage 2: PLA representation error of every layer per candidate count.

    Engine-independent (PLA re-encoding involves no crossbar reads): for
    each encoded layer, the mean absolute re-encoding error of the layer's
    exact activation grid is computed at every candidate pulse count, under
    the config's PLA rounding mode (each layer's own mode when unset).
    This is exactly the error the GBO objective is blind to — compare a
    :class:`GBOArtifact`'s ``pla_errors`` against these sweeps.
    """
    sim = sim if sim is not None else state.sim
    model = state.model
    layers = list(model.encoded_layers())
    names = model.encoded_layer_names()
    counts = tuple(int(p) for p in pulse_counts)
    rows = []
    for index, layer in enumerate(layers):
        mode = sim.pla_mode if sim.pla_mode is not None else layer.pla_mode
        for pulses in counts:
            rows.append(
                PLACalibrationRow(
                    layer_index=index,
                    layer_name=names[index],
                    num_pulses=pulses,
                    error=activation_grid_error(
                        layer.act_quantizer.levels, pulses, mode=mode
                    ),
                )
            )
    return PLACalibration(rows=rows, pulse_counts=counts)


def run_gbo(
    state: PipelineState,
    sim: Optional[SimConfig] = None,
    gamma: Optional[float] = None,
    weights: Optional[Dict[str, np.ndarray]] = None,
    epochs: Optional[int] = None,
    learning_rate: Optional[float] = None,
) -> GBOArtifact:
    """Stage 3: learn a per-layer pulse schedule (Eq. 5-7) under ``sim``.

    The config supplies the noise level the candidate mixture "feels" and
    the engine executing it; ``gamma`` (default: the profile's
    ``gamma_short``) sets the Eq. 6 latency weight.  Start from an NIA
    artifact's ``weights`` to reproduce the paper's NIA+GBO synergy row.
    """
    profile = state.profile
    sim = sim if sim is not None else state.sim
    gamma = float(gamma) if gamma is not None else profile.gamma_short
    model = _stage_model(state, weights)
    apply_config(model, sim.with_changes(mode="clean", pulses=None), profile)
    trainer = GBOTrainer(
        model,
        GBOConfig(
            space=PulseScalingSpace(base_pulses=profile.base_pulses),
            gamma=gamma,
            learning_rate=learning_rate if learning_rate is not None else profile.gbo_lr,
            epochs=epochs if epochs is not None else profile.gbo_epochs,
        ),
    )
    result = trainer.train(state.gbo_loader)
    artifact = GBOArtifact(
        schedule=tuple(result.schedule.as_list()),
        average_pulses=result.schedule.average_pulses,
        pla_errors=tuple(result.pla_errors),
        gamma=gamma,
        sim=sim,
        result=result,
    )
    state.bundle.reset()
    return artifact


def run_nia(
    state: PipelineState,
    sim: Optional[SimConfig] = None,
    weights: Optional[Dict[str, np.ndarray]] = None,
    epochs: Optional[int] = None,
    learning_rate: Optional[float] = None,
) -> NIAArtifact:
    """Stage 4: fine-tune the weights under injected crossbar noise (NIA).

    The config supplies the injected noise level/convention (one uniform
    sigma, a float), the training pulse count (``sim.pulses``, a uniform
    int; the profile's baseline when unset) and the engine.  Returns the
    adapted weights as an artifact — the shared model itself is reset to
    the pre-trained baseline.
    """
    profile = state.profile
    sim = sim if sim is not None else state.sim
    if isinstance(sim.pulses, tuple):
        raise ValueError("NIA fine-tunes under one uniform pulse count; pass an int")
    if isinstance(sim.noise_sigma, tuple):
        raise ValueError("NIA fine-tunes under one uniform noise sigma; pass a float")
    model = _stage_model(state, weights)
    if sim.engine is not None:
        apply_config(model, SimConfig(engine=sim.engine), profile)
    relative = sim.sigma_relative_to_fan_in
    config = NIAConfig(
        sigma=sim.noise_sigma,
        epochs=epochs if epochs is not None else profile.nia_epochs,
        learning_rate=learning_rate if learning_rate is not None else profile.nia_lr,
        pulses=sim.pulses if sim.pulses is not None else profile.base_pulses,
        sigma_relative_to_fan_in=(
            relative if relative is not None else profile.noise_relative_to_fan_in
        ),
    )
    history = NIATrainer(model, config).train(state.train_loader)
    snapshot_keys = set(state.bundle.pretrained_snapshot) or set(model.state_dict())
    adapted = {
        name: np.array(value, copy=True)
        for name, value in model.state_dict().items()
        if name in snapshot_keys
    }
    artifact = NIAArtifact(
        weights=adapted,
        history=history,
        final_loss=history[-1]["loss"] if history else float("nan"),
        sim=sim,
    )
    state.bundle.reset()
    return artifact


# e2ebench/ still reads these two runner functions through this module.
# Resolved on every access (PEP 562), so a wrapper installed on the
# runner's binding is what comes back.
_RUNNER_NAMES = ("eval_scenario_spec", "execute_api_eval_batch")


def __getattr__(name: str):
    if name in _RUNNER_NAMES:
        from repro.experiments.runner import scenarios

        return getattr(scenarios, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
