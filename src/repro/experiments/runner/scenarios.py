"""Scenario execution: context object, per-experiment dispatch, stacking.

Every experiment module contributes one *scenario executor* — a function
``execute(ctx: ScenarioContext) -> dict`` that runs a single
:class:`~repro.experiments.runner.spec.ScenarioSpec` end to end and returns
a plain JSON-serialisable dict — or, for scenarios that are one
:func:`repro.api.evaluate` call, declares that evaluation and the shape of
its result instead (see :class:`ExecutorKind`), which lets the runner stack
them (:func:`stack_groups`, :func:`execute_api_eval_batch`).  The
``api_eval`` kind, one facade evaluation as a scenario, is defined here.
The dispatch table below names the experiment modules as strings, imported
on first use, only to break an import cycle: ``repro.experiments`` imports
them, and they import :func:`~repro.experiments.runner.executor.run_grid`,
hence this module.  (It saves no imports: importing the runner already
loads every experiment module and :mod:`repro.api`.)

Determinism contract (what makes serial, parallel and resumed runs
bit-identical):

1. the executor calls :func:`repro.utils.seed.seed_everything` with the
   spec's :meth:`~repro.experiments.runner.spec.ScenarioSpec.derived_seed`
   before handing control to the experiment code;
2. :meth:`ScenarioContext.pipeline` resets the shared model
   (:meth:`~repro.experiments.common.ExperimentBundle.reset`: pre-trained
   snapshot, gradients on, the scenario's base config with its engine pin),
   erasing whatever a previous scenario did to it;
3. executors run the paper's pipeline through :mod:`repro.api`'s stages on
   the :class:`~repro.api.PipelineState` that
   :meth:`ScenarioContext.pipeline` returns (the bundle after the reset of
   2., under the spec's profile); every stage builds *fresh* data loaders
   whose shuffle RNGs start from the profile seed, so iteration order
   cannot depend on how many scenarios or stages ran before;
4. shared intermediate stages (:meth:`ScenarioContext.stage_state`) seed
   from their own key and reseed the scenario stream afterwards, so a stage
   loaded from cache and a stage computed in place leave the scenario in
   exactly the same RNG state;
5. :func:`execute_scenario` restores the execution context's compute dtype
   after the executor, so a scenario's dtype cannot leak into the next one
   (a bundle-free executor such as Fig. 1(b) computes in the context's
   dtype).
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional

import numpy as np

from repro import api
from repro.context import current_context
from repro.experiments.profiles import ExperimentProfile, get_profile
from repro.experiments.runner.spec import ScenarioSpec, stable_seed
from repro.sim import SimConfig, resolve_engine_name
from repro.tensor.random import RandomState
from repro.training.evaluate import evaluate_multi
from repro.utils.seed import seed_everything


class ExecutorKind(NamedTuple):
    """How the scenarios of one experiment execute.

    ``execute`` names the executor ``execute(ctx) -> dict``.  An eval-only
    kind also names ``evaluation(ctx) -> Evaluation | None`` (the one
    :func:`repro.api.evaluate` call a scenario is, or ``None`` for a
    scenario of the kind that does more, such as a GBO cell) and
    ``shape(ctx, EvaluationResult) -> dict`` (its stored result); a kind
    whose every scenario is one evaluation needs no ``execute``.  Such
    scenarios stack (see :func:`stack_key`).
    """

    module: str
    execute: Optional[str]
    needs_bundle: bool
    evaluation: Optional[str] = None
    shape: Optional[str] = None


class Evaluation(NamedTuple):
    """The one evaluation of an eval-only scenario: config and repeat count."""

    sim: SimConfig
    repeats: int


#: experiment identifier -> how its scenarios execute
_EXECUTORS: Dict[str, ExecutorKind] = {
    "fig1b": ExecutorKind("repro.experiments.fig1b", "execute_fig1b_scenario", False),
    "fig2": ExecutorKind(
        "repro.experiments.fig2", None, True, "fig2_evaluation", "fig2_result"
    ),
    "table1": ExecutorKind(
        "repro.experiments.table1",
        "execute_table1_scenario",
        True,
        "table1_evaluation",
        "table1_result",
    ),
    "table2": ExecutorKind("repro.experiments.table2", "execute_table2_scenario", True),
    "ablation_encoding": ExecutorKind(
        "repro.experiments.ablations", None, True, "encoding_evaluation", "encoding_result"
    ),
    "ablation_pla_error": ExecutorKind(
        "repro.experiments.ablations", "execute_pla_error_scenario", False
    ),
    "ablation_gamma": ExecutorKind(
        "repro.experiments.ablations", "execute_gamma_scenario", True
    ),
    # Facade evaluation as a scenario: the request type behind repro.serve.
    "api_eval": ExecutorKind(
        "repro.experiments.runner.scenarios", None, True, "api_eval_evaluation", "api_eval_result"
    ),
    # Bundle-free diagnostic scenario (latency/failure injection); used by
    # the serve layer's health probes and the executor's failure tests.
    "selftest": ExecutorKind(
        "repro.experiments.runner.scenarios", "execute_selftest_scenario", False
    ),
}


def _kind(experiment: str) -> ExecutorKind:
    try:
        return _EXECUTORS[experiment]
    except KeyError as error:
        raise KeyError(
            f"unknown experiment {experiment!r}; known: {sorted(_EXECUTORS)}"
        ) from error


def needs_bundle(experiment: str) -> bool:
    """Whether scenarios of this experiment require a pre-trained bundle."""
    return _kind(experiment).needs_bundle


def evaluation_kind(experiment: str) -> bool:
    """Whether scenarios of this experiment may be one evaluation (and stack)."""
    return _kind(experiment).evaluation is not None


def _function(kind: ExecutorKind, name: str) -> Callable:
    return getattr(importlib.import_module(kind.module), name)


def evaluation_of(ctx: "ScenarioContext") -> Optional[Evaluation]:
    """The one evaluation ``ctx``'s scenario is, or ``None`` if it does more."""
    kind = _kind(ctx.spec.experiment)
    if kind.evaluation is None:
        return None
    return _function(kind, kind.evaluation)(ctx)


def shape_result(ctx: "ScenarioContext", evaluation) -> Dict[str, Any]:
    """The stored result of an eval-only scenario, from its
    :class:`repro.api.EvaluationResult`."""
    kind = _kind(ctx.spec.experiment)
    return _function(kind, kind.shape)(ctx, evaluation)


def stack_key(spec: ScenarioSpec, bundle=None) -> Optional[tuple]:
    """The stacking-group key of an eval-only scenario, or ``None``.

    Two scenarios may share one stacked evaluation
    (:func:`execute_api_eval_batch`) when they agree on the model
    weights and input pipeline (profile name and overrides), the repeat
    count and their configs' :meth:`~repro.sim.SimConfig.compat_key`, of
    whatever eval-only kind they are.  Sigma, pulses, the relative flag and
    the seed stay per scenario; ``gbo``-mode configs and scenarios that do
    more than one evaluation never stack.  ``bundle`` is the scenario's
    pre-trained bundle (Fig. 2 reads its layer count from it).
    """
    if not evaluation_kind(spec.experiment):
        return None
    ctx = ScenarioContext(spec, bundle=bundle)
    evaluation = evaluation_of(ctx)
    if evaluation is None or evaluation.sim.mode not in ("clean", "noisy"):
        return None
    return (
        spec.profile,
        spec.overrides,
        evaluation.repeats,
        evaluation.sim.compat_key(ctx.profile),
    )


def stack_groups(
    specs: Iterable[ScenarioSpec], bundle_for: Callable[[ScenarioSpec], Any]
) -> List[List[ScenarioSpec]]:
    """The stackable groups among ``specs``: every group of two or more
    specs sharing one :func:`stack_key`, members in ``specs`` order.

    ``bundle_for(spec)`` is the spec's pre-trained bundle.  A spec whose
    bundle or key cannot be had joins no group: it fails as a scenario of
    its own when it runs, and does not abort the plan of the others.
    """
    groups: Dict[Any, List[ScenarioSpec]] = {}
    for spec in specs:
        if not evaluation_kind(spec.experiment):
            continue
        try:
            key = stack_key(spec, bundle_for(spec))
        except Exception:  # noqa: BLE001 - it fails as a scenario of its own
            key = None
        if key is not None:
            groups.setdefault(key, []).append(spec)
    return [group for group in groups.values() if len(group) >= 2]


class ScenarioContext:
    """Everything one scenario executor may touch.

    The context owns the determinism contract described in the module
    docstring; experiment executors only read ``ctx.spec`` and call the
    accessors below.
    """

    def __init__(self, spec: ScenarioSpec, bundle=None, stage_store=None):
        self.spec = spec
        self.bundle = bundle
        self.stage_store = stage_store

    # ------------------------------------------------------------------
    # Profile / seeds
    # ------------------------------------------------------------------
    @property
    def profile(self) -> Optional[ExperimentProfile]:
        # Always reconstructed from the spec (never taken from the bundle):
        # the spec's overrides are part of its hash, so they must be honoured
        # identically whether the scenario runs against a shared in-process
        # bundle or a worker's freshly built one.
        if self.spec.profile:
            return self.spec.resolved_profile()
        if self.bundle is not None:
            return self.bundle.profile
        return None

    def base_seed(self) -> int:
        if self.spec.seed is not None:
            return self.spec.seed
        profile = self.profile
        return profile.seed if profile is not None else 0

    def scenario_seed(self) -> int:
        """The scenario's derived RNG seed (pure function of the spec)."""
        return self.spec.derived_seed(self.base_seed())

    def reseed(self) -> None:
        """(Re)enter the scenario's own RNG stream."""
        seed_everything(self.scenario_seed())

    # ------------------------------------------------------------------
    # Model / data
    # ------------------------------------------------------------------
    def pipeline(self):
        """The :class:`repro.api.PipelineState` the executor's stages run on.

        First resets the bundle's shared model to a scenario-independent
        state: restores the pre-trained snapshot (weights, BN buffers),
        re-enables gradients (a previous GBO scenario froze them) and
        applies the scenario's base :class:`~repro.sim.SimConfig` — clean
        mode, zero noise, the spec's resolved engine — erasing whatever a
        previous scenario configured on the model.  The state carries that
        base config and the spec's profile (overrides included), so the
        stages read their hyper-parameters and build their loaders from
        the spec.
        """
        bundle = self._bundle()
        sim = self.sim_config()
        bundle.reset(sim, self.profile)
        return api.PipelineState(bundle=bundle, sim=sim, profile=self.profile)

    def _bundle(self):
        if self.bundle is None:
            raise ValueError(
                f"scenario {self.spec.label()} needs a pre-trained bundle"
            )
        return self.bundle

    def encoded_layer_names(self) -> List[str]:
        """The names of the pre-trained model's encoded layers, in order."""
        return self._bundle().model.encoded_layer_names()

    def sim_config(self) -> SimConfig:
        """The scenario's base simulation config (see ScenarioSpec.sim_config)."""
        return self.spec.sim_config(self.profile)

    def noisy_sim(self, pulses=None, sigma: Optional[float] = None) -> SimConfig:
        """The scenario's noisy-inference config.

        Derived from the base config: noisy mode, the spec's sigma (or an
        explicit override), the profile's noise convention and an optional
        pulse count/schedule (``None`` keeps the model's current pulses).
        """
        profile = self.profile
        return self.sim_config().with_changes(
            mode="noisy",
            noise_sigma=float(sigma if sigma is not None else self.spec.sigma),
            pulses=pulses,
            sigma_relative_to_fan_in=(
                profile.noise_relative_to_fan_in if profile is not None else None
            ),
        )

    def gbo_sim(self) -> SimConfig:
        """The config a GBO stage trains under: :meth:`noisy_sim`, with the
        spec's ``gbo_engine`` pin (when set) in place of its engine."""
        engine = self.spec.param("gbo_engine")
        sim = self.noisy_sim()
        return sim if engine is None else sim.with_changes(engine=engine)

    def engine_name(self) -> str:
        """The scenario's engine under the one precedence rule.

        Spec pin first, then the profile's backend, then ``"vectorized"`` —
        see :func:`repro.sim.resolve_engine_name`.
        """
        return resolve_engine_name(self.spec.engine, self.profile)

    # ------------------------------------------------------------------
    # Shared stages
    # ------------------------------------------------------------------
    def stage_seed(self, key: Mapping[str, Any]) -> int:
        """Deterministic seed for a shared stage (independent of the spec)."""
        return stable_seed({"stage": dict(key), "base": self.base_seed()})

    def stage_state(
        self,
        key: Mapping[str, Any],
        compute: Callable[[], Dict[str, np.ndarray]],
    ) -> Dict[str, np.ndarray]:
        """A cached derived state shared between scenarios (e.g. NIA weights).

        ``compute`` runs inside the stage's own RNG stream (seeded from the
        key, not the spec), so every scenario that needs the stage computes
        the identical state.  Afterwards the scenario's stream is re-entered,
        making cache hits and misses indistinguishable to the caller.
        """
        full_key = dict(key)
        full_key["stage_seed"] = self.stage_seed(key)

        def seeded_compute() -> Dict[str, np.ndarray]:
            seed_everything(full_key["stage_seed"])
            return compute()

        if self.stage_store is not None:
            state = self.stage_store.stage_state(full_key, seeded_compute)
        else:
            state = seeded_compute()
        self.reseed()
        return state


def execute_selftest_scenario(ctx: "ScenarioContext") -> Dict[str, Any]:
    """Diagnostic scenario: no bundle, no model — pure spec-derived output.

    Parameters travel as spec params: ``sleep_s`` injects latency, ``fail``
    raises on demand, ``value`` is echoed back.  The serve layer uses it as
    a live health probe; the executor tests use it to stage deterministic
    worker failures and sleeps without pre-training anything.
    """
    spec = ctx.spec
    sleep_s = float(spec.param("sleep_s", 0.0) or 0.0)
    if sleep_s > 0:
        time.sleep(sleep_s)
    if spec.param("fail", False):
        raise RuntimeError(f"selftest scenario failed on request: {spec.label()}")
    return {
        "experiment": "selftest",
        "method": spec.method,
        "value": spec.param("value"),
        "seed": ctx.scenario_seed(),
    }


@contextmanager
def restored_dtype() -> Iterator[None]:
    """Restore the execution context's compute dtype on leaving (rule 5 of
    the determinism contract)."""
    context = current_context()
    dtype = context.dtype_name
    try:
        yield
    finally:
        context.set_dtype(dtype)


def execute_scenario(
    spec: ScenarioSpec, bundle=None, stage_store=None
) -> Dict[str, Any]:
    """Run one scenario in the current process and return its result dict.

    An eval-only scenario (:func:`evaluation_of`) is
    ``shape(ctx, api.evaluate(ctx.pipeline(), sim, num_repeats=repeats))``;
    any other runs its kind's executor.
    """
    kind = _kind(spec.experiment)
    ctx = ScenarioContext(spec, bundle=bundle, stage_store=stage_store)
    with restored_dtype():
        ctx.reseed()
        evaluation = evaluation_of(ctx)
        if evaluation is None:
            return _function(kind, kind.execute)(ctx)
        return shape_result(
            ctx,
            api.evaluate(ctx.pipeline(), evaluation.sim, num_repeats=evaluation.repeats),
        )


# ---------------------------------------------------------------------------
# api_eval: one repro.api.evaluate call as a scenario, and stacked evaluation
# ---------------------------------------------------------------------------
def eval_scenario_spec(
    profile: Any,
    sim: SimConfig,
    num_repeats: int = 1,
    seed: Optional[int] = None,
    method: str = "evaluate",
):
    """The :class:`ScenarioSpec` equivalent of one :func:`repro.api.evaluate` call.

    This is how ``repro.serve`` turns an evaluation request into a
    content-addressed identity: the profile, the *fully resolved* config
    and the repeat count all join the spec hash, so identical requests
    share one store entry and one execution.  The config is made concrete
    before hashing — the engine pin through the one precedence rule (the
    engines agree only statistically on noisy reads), and every
    keep-current field (pulses, noise convention, PLA rounding, dtype)
    filled from the profile's baseline — because a ``None`` field means
    "keep the layer's current state", which would make the result depend
    on whatever ran before it on the shared model.  The spec's ``sigma``
    is a uniform sigma, or ``None`` for zero or per-layer noise (the
    attached config carries the per-layer tuple).  Executed as one
    :func:`repro.api.evaluate` under that config (:func:`api_eval_evaluation`).
    """
    if not isinstance(profile, ExperimentProfile):
        profile = get_profile(profile)
    if num_repeats < 1:
        raise ValueError(f"num_repeats must be positive, got {num_repeats}")
    relative = sim.sigma_relative_to_fan_in
    resolved = sim.with_changes(
        engine=sim.resolved_engine(profile),
        pulses=sim.pulses if sim.pulses is not None else profile.base_pulses,
        sigma_relative_to_fan_in=(
            relative if relative is not None else profile.noise_relative_to_fan_in
        ),
        pla_mode=sim.pla_mode if sim.pla_mode is not None else "toward_extremes",
        dtype=sim.dtype if sim.dtype is not None else "float64",
    )
    sigma = resolved.noise_sigma
    return ScenarioSpec.create(
        "api_eval",
        method=method,
        profile=profile.name,
        sigma=sigma if sigma and not isinstance(sigma, tuple) else None,
        seed=seed,
        sim=resolved,
        num_repeats=int(num_repeats),
    )


def api_eval_evaluation(ctx):
    """An ``api_eval`` spec's evaluation (see :func:`eval_scenario_spec`):
    the spec's attached config, at its repeat count."""
    return Evaluation(ctx.sim_config(), int(ctx.spec.param("num_repeats", 1)))


def api_eval_result(ctx, evaluation: "api.EvaluationResult") -> Dict[str, Any]:
    """The stored ``api_eval`` result of one spec's evaluation."""
    per_repeat = [float(value) for value in evaluation.per_repeat]
    return {
        "experiment": "api_eval",
        "method": ctx.spec.method,
        "accuracy": float(np.mean(per_repeat)),
        "per_repeat": per_repeat,
        "num_repeats": len(per_repeat),
        "clean_accuracy": float(ctx.bundle.clean_accuracy),
        "sim": evaluation.sim.as_dict(),
    }


def execute_api_eval_batch(
    specs, bundle, stage_store=None, lanes: int = 2
) -> List[Dict[str, Any]]:
    """Execute K compatible evaluation-only specs in one stacked evaluation.

    The specs may be of any eval-only kind (Table I uniform cells, Fig. 2,
    ablation A1, ``api_eval``) as long as they share one :func:`stack_key`.
    Returns one result dict per spec, in order, each bit-identical to the
    spec's own run, ``shape(ctx, evaluate(ctx.pipeline(), sim, num_repeats))``: the
    specs share only the deterministic work (data pipeline, the model stem,
    and the first encoded layer's quantisation and ideal read per distinct
    encoding — see :func:`repro.training.evaluate.evaluate_multi`), every
    scenario runs the rest of the model at the sequential batch size, and
    scenario ``k`` draws its noise from ``RandomState(sim.seed)``, else
    ``RandomState(derived_seed_k)`` — the very stream its own run would
    use.  ``lanes`` is :func:`~repro.training.evaluate.evaluate_multi`'s
    (grid drains run one).  Results are still keyed and persisted
    individually by the caller.
    """
    if not specs:
        return []
    keys = {stack_key(spec, bundle) for spec in specs}
    if len(keys) != 1 or None in keys:
        raise ValueError(f"specs are not stackable into one evaluation (keys: {keys})")
    contexts = [
        ScenarioContext(spec, bundle=bundle, stage_store=stage_store) for spec in specs
    ]
    evaluations = [evaluation_of(ctx) for ctx in contexts]
    sims = [evaluation.sim for evaluation in evaluations]
    # Scenario k's stream: a seeded config reseeds at Session enter in its
    # own run, otherwise the runner's ctx.reseed() stream applies.
    # RandomState(seed) IS that stream (both are numpy default_rng(seed)).
    rngs = [
        RandomState(sim.seed if sim.seed is not None else ctx.scenario_seed())
        for sim, ctx in zip(sims, contexts)
    ]
    with restored_dtype():
        state = contexts[0].pipeline()
        per_scenario = evaluate_multi(
            state.model,
            state.test_loader,
            sims,
            rngs=rngs,
            profile=state.profile,
            num_repeats=evaluations[0].repeats,
            lanes=lanes,
        )
        state.bundle.reset()
    return [
        shape_result(
            ctx,
            api.EvaluationResult(
                accuracy=float(np.mean(per_repeat)), per_repeat=tuple(per_repeat), sim=sim
            ),
        )
        for ctx, sim, per_repeat in zip(contexts, sims, per_scenario)
    ]

