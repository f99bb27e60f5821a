"""Experiment E2 — Fig. 2: layer-wise noise sensitivity.

Injects Gaussian crossbar noise into one encoded layer at a time of the
pre-trained network and records the resulting accuracy, reproducing the
heterogeneous sensitivity profile that motivates per-layer pulse lengths.

Expressed as a grid on the scenario runner: one scenario per target layer,
each one :func:`repro.api.evaluate` of the whole network under a per-layer
``noise_sigma`` that is the scenario's sigma at the target and zero
elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from repro import api
from repro.core.noise_sensitivity import LayerSensitivity
from repro.experiments.common import ExperimentBundle
from repro.experiments.profiles import ExperimentProfile


@dataclass
class Fig2Result:
    """Per-layer accuracies with single-layer noise injection."""

    sigma: float
    clean_accuracy: float
    sensitivities: List[LayerSensitivity]

    def accuracy_by_layer(self) -> List[float]:
        """Accuracies in layer order."""
        return [entry.accuracy for entry in self.sensitivities]

    def most_sensitive_layer(self) -> LayerSensitivity:
        """The layer whose noise hurts accuracy the most."""
        return min(self.sensitivities, key=lambda entry: entry.accuracy)

    def format_table(self) -> str:
        """Human-readable rendering of the figure's series."""
        lines = [f"clean accuracy: {self.clean_accuracy:.2f}%  (sigma={self.sigma})"]
        lines.append("target layer | accuracy (%)")
        for entry in self.sensitivities:
            lines.append(f"{entry.layer_name:>12} | {entry.accuracy:10.2f}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Scenario grid
# ---------------------------------------------------------------------------
def encoded_layer_count(profile: ExperimentProfile) -> int:
    """Encoded-layer count of the profile's architecture.

    Derived from the model itself (the single source of truth, so grids
    built from a profile and grids built from a live bundle can never
    disagree) and memoised per architecture shape, because the registry and
    the report builder construct fig2 grids without a bundle at hand.  The
    memo lives on the current execution context's bounded cache: unusual
    shapes (profile overrides sweeping width/size) age out instead of
    accumulating for the life of the process.
    """
    from repro.context import current_context

    cache = current_context().bounded_cache("fig2_layer_counts", max_entries=8)
    key = (profile.model, profile.width_multiplier, profile.image_size,
           profile.num_classes, profile.activation_levels)
    if key not in cache:
        from repro.experiments.common import build_model

        cache.put(key, build_model(profile).num_encoded_layers())
    return cache.get(key)


def _resolve_sigma(profile: ExperimentProfile, sigma: Optional[float]) -> float:
    """Default to the middle of the profile's sweep ("moderate noise")."""
    if sigma is not None:
        return float(sigma)
    return float(profile.sigmas[len(profile.sigmas) // 2])


def fig2_grid(
    profile: ExperimentProfile,
    sigma: Optional[float] = None,
    num_layers: Optional[int] = None,
    engine=None,
):
    """One scenario per encoded layer of the profile's network."""
    from repro.experiments.runner.spec import ScenarioGrid, ScenarioSpec, profile_axes

    if num_layers is None:
        num_layers = encoded_layer_count(profile)
    sigma = _resolve_sigma(profile, sigma)
    axes = profile_axes(profile, engine)
    specs = tuple(
        ScenarioSpec.create(
            experiment="fig2",
            method=f"layer{index}",
            sigma=sigma,
            layer_index=index,
            **axes,
        )
        for index in range(num_layers)
    )
    return ScenarioGrid(name="fig2", specs=specs)


def execute_fig2_scenario(ctx) -> Dict[str, Any]:
    """Accuracy of the pre-trained model with one layer made noisy."""
    target_index = int(ctx.spec.param("layer_index"))
    state = ctx.pipeline()
    names = state.model.encoded_layer_names()
    noisy = ctx.noisy_sim(pulses=ctx.profile.base_pulses)
    sigmas = tuple(
        noisy.noise_sigma if index == target_index else 0.0 for index in range(len(names))
    )
    evaluation = api.evaluate(state, noisy.with_changes(noise_sigma=sigmas))
    return {
        "layer_index": target_index,
        "layer_name": names[target_index],
        "accuracy": evaluation.accuracy,
    }


def assemble_fig2(
    grid, results: Mapping[str, Mapping[str, Any]], bundle: ExperimentBundle
) -> Fig2Result:
    """Fold per-layer scenario results back into the figure."""
    rows = sorted(
        (results[spec.hash] for spec in grid), key=lambda row: row["layer_index"]
    )
    sigma = next(iter(grid)).sigma
    return Fig2Result(
        sigma=sigma,
        clean_accuracy=bundle.clean_accuracy,
        sensitivities=[
            LayerSensitivity(
                layer_index=int(row["layer_index"]),
                layer_name=row["layer_name"],
                accuracy=row["accuracy"],
            )
            for row in rows
        ],
    )
