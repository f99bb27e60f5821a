"""Scenario execution: context object and per-experiment dispatch.

Every experiment module contributes one *scenario executor* — a function
``execute(ctx: ScenarioContext) -> dict`` that runs a single
:class:`~repro.experiments.runner.spec.ScenarioSpec` end to end and returns
a plain JSON-serialisable dict.  The dispatch table below maps experiment
identifiers to those executors via lazy imports, so worker processes only
import what they run and no circular imports arise (the experiment modules
import the executor's :func:`~repro.experiments.runner.executor.run_grid`,
not this module).

Determinism contract (what makes serial, parallel and resumed runs
bit-identical):

1. the executor calls :func:`repro.utils.seed.seed_everything` with the
   spec's :meth:`~repro.experiments.runner.spec.ScenarioSpec.derived_seed`
   before handing control to the experiment code;
2. :meth:`ScenarioContext.model` restores the bundle's pre-trained snapshot,
   re-enables gradients and re-pins the engine, erasing whatever a previous
   scenario did to the shared model;
3. :meth:`ScenarioContext.loaders` builds *fresh* data loaders whose shuffle
   RNGs start from the profile seed — iteration order cannot depend on how
   many scenarios ran before;
4. shared intermediate stages (:meth:`ScenarioContext.stage_state`) seed
   from their own key and reseed the scenario stream afterwards, so a stage
   loaded from cache and a stage computed in place leave the scenario in
   exactly the same RNG state.
"""

from __future__ import annotations

import importlib
import time
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.experiments.profiles import ExperimentProfile, get_profile
from repro.experiments.runner.spec import ScenarioSpec, stable_seed
from repro.sim import SimConfig, apply_config, resolve_engine_name
from repro.utils.seed import seed_everything

#: experiment identifier -> (module, executor function, needs a pre-trained bundle)
_EXECUTORS: Dict[str, Tuple[str, str, bool]] = {
    "fig1b": ("repro.experiments.fig1b", "execute_fig1b_scenario", False),
    "fig2": ("repro.experiments.fig2", "execute_fig2_scenario", True),
    "table1": ("repro.experiments.table1", "execute_table1_scenario", True),
    "table2": ("repro.experiments.table2", "execute_table2_scenario", True),
    "ablation_encoding": (
        "repro.experiments.ablations",
        "execute_encoding_scenario",
        True,
    ),
    "ablation_pla_error": (
        "repro.experiments.ablations",
        "execute_pla_error_scenario",
        False,
    ),
    "ablation_gamma": (
        "repro.experiments.ablations",
        "execute_gamma_scenario",
        True,
    ),
    # Facade evaluation as a scenario: the request type behind repro.serve.
    "api_eval": ("repro.api", "execute_api_eval_scenario", True),
    # Bundle-free diagnostic scenario (latency/failure injection); used by
    # the serve layer's health probes and the executor's failure tests.
    "selftest": (
        "repro.experiments.runner.scenarios",
        "execute_selftest_scenario",
        False,
    ),
}


def needs_bundle(experiment: str) -> bool:
    """Whether scenarios of this experiment require a pre-trained bundle."""
    try:
        return _EXECUTORS[experiment][2]
    except KeyError as error:
        raise KeyError(
            f"unknown experiment {experiment!r}; known: {sorted(_EXECUTORS)}"
        ) from error


def _resolve_executor(experiment: str) -> Callable[["ScenarioContext"], Dict[str, Any]]:
    try:
        module_name, function_name, _ = _EXECUTORS[experiment]
    except KeyError as error:
        raise KeyError(
            f"unknown experiment {experiment!r}; known: {sorted(_EXECUTORS)}"
        ) from error
    module = importlib.import_module(module_name)
    return getattr(module, function_name)


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
        self._loaders = None

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
            return get_profile(self.spec.profile).with_overrides(
                **self.spec.override_dict()
            )
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
    def model(self):
        """The bundle's model, reset to a scenario-independent state.

        Restores the pre-trained snapshot (weights, BN buffers), re-enables
        gradients (a previous GBO scenario froze them) and applies the
        scenario's base :class:`~repro.sim.SimConfig` — clean mode, zero
        noise, the spec's resolved engine — erasing whatever a previous
        scenario configured on the shared model.
        """
        if self.bundle is None:
            raise ValueError(
                f"scenario {self.spec.label()} needs a pre-trained bundle"
            )
        model = self.bundle.model
        self.bundle.restore_pretrained()
        model.requires_grad_(True)
        apply_config(model, self.sim_config(), self.profile)
        return model

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

    def engine_name(self) -> str:
        """The scenario's engine under the one precedence rule.

        Spec pin first, then the profile's backend, then ``"vectorized"`` —
        see :func:`repro.sim.resolve_engine_name`.
        """
        return resolve_engine_name(self.spec.engine, self.profile)

    def loaders(self):
        """Fresh (train, test, gbo) loaders for the scenario's profile."""
        if self._loaders is None:
            from repro.experiments.common import build_loaders

            self._loaders = build_loaders(self.profile)
        return self._loaders

    @property
    def train_loader(self):
        return self.loaders()[0]

    @property
    def test_loader(self):
        return self.loaders()[1]

    @property
    def gbo_loader(self):
        return self.loaders()[2]

    @property
    def clean_accuracy(self) -> float:
        return self.bundle.clean_accuracy

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


def execute_scenario(
    spec: ScenarioSpec, bundle=None, stage_store=None
) -> Dict[str, Any]:
    """Run one scenario in the current process and return its result dict."""
    executor = _resolve_executor(spec.experiment)
    ctx = ScenarioContext(spec, bundle=bundle, stage_store=stage_store)
    ctx.reseed()
    return executor(ctx)
