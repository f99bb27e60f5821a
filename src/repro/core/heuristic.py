"""Heuristic (non-gradient) per-layer pulse selection baseline.

The paper motivates GBO by arguing that "a heuristic approach (e.g. manually
selecting bit encoding for each layer)" does not generalise across network
configurations.  To make that comparison concrete, this module implements the
obvious strong heuristic: measure each layer's noise sensitivity (the Fig. 2
analysis), then greedily assign longer pulse encodings to the most sensitive
layers until an average-pulse budget is exhausted.

It serves both as an ablation baseline for GBO and as a practical fallback
when no gradient-based search budget is available.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.noise_sensitivity import LayerSensitivity, layer_noise_sensitivity
from repro.core.schedule import PulseSchedule
from repro.core.search_space import PulseScalingSpace


@dataclass
class HeuristicResult:
    """Outcome of the sensitivity-guided heuristic selection."""

    schedule: PulseSchedule
    sensitivities: List[LayerSensitivity]
    budget_average_pulses: float

    @property
    def average_pulses(self) -> float:
        """Average pulse count of the selected schedule."""
        return self.schedule.average_pulses


def sensitivity_guided_schedule(
    model,
    loader,
    sigma: float,
    budget_average_pulses: float,
    space: Optional[PulseScalingSpace] = None,
    sigma_relative_to_fan_in: bool = False,
    sensitivities: Optional[Sequence[LayerSensitivity]] = None,
) -> HeuristicResult:
    """Allocate pulses to layers by measured noise sensitivity under a budget.

    Algorithm
    ---------
    1. Run the single-layer noise-injection analysis (Fig. 2) to obtain the
       accuracy drop caused by each layer's noise (unless ``sensitivities``
       are supplied).
    2. Start every layer at the shortest candidate pulse count.
    3. Repeatedly upgrade the layer with the largest measured accuracy drop
       to its next longer candidate, as long as the schedule's average pulse
       count stays within ``budget_average_pulses``.  Upgrading a layer halves
       the drop it is credited with, so the budget is spread across layers
       instead of being dumped on the single most sensitive one.

    Returns the selected :class:`PulseSchedule` together with the measured
    sensitivities, so callers can log or plot the allocation rationale.
    """
    space = space or PulseScalingSpace()
    candidates = sorted(set(space.pulse_counts))
    layers = list(model.encoded_layers())
    if not layers:
        raise ValueError("model has no encoded layers to schedule")
    if budget_average_pulses < candidates[0]:
        raise ValueError(
            f"budget_average_pulses={budget_average_pulses} is below the shortest "
            f"candidate pulse count {candidates[0]}"
        )

    if sensitivities is None:
        sensitivities = layer_noise_sensitivity(
            model,
            loader,
            sigma=sigma,
            pulses=space.base_pulses,
            sigma_relative_to_fan_in=sigma_relative_to_fan_in,
        )
    sensitivities = list(sensitivities)
    if len(sensitivities) != len(layers):
        raise ValueError(
            f"got {len(sensitivities)} sensitivity entries for {len(layers)} layers"
        )

    # Accuracy drop relative to the best layer accuracy = how much this
    # layer's noise hurts; always non-negative.
    accuracies = np.array([entry.accuracy for entry in sensitivities], dtype=np.float64)
    drops = accuracies.max() - accuracies

    num_layers = len(layers)
    level_index = [0] * num_layers  # index into `candidates` per layer
    remaining_drop = drops.copy()
    total_budget = budget_average_pulses * num_layers

    def total_pulses() -> int:
        return sum(candidates[i] for i in level_index)

    while True:
        # Candidate upgrades: layers not yet at the longest encoding.
        upgradable = [i for i in range(num_layers) if level_index[i] + 1 < len(candidates)]
        if not upgradable:
            break
        # Pick the layer with the largest remaining credited drop.
        target = max(upgradable, key=lambda i: (remaining_drop[i], -level_index[i]))
        next_total = total_pulses() - candidates[level_index[target]] + candidates[level_index[target] + 1]
        if next_total > total_budget + 1e-9:
            break
        level_index[target] += 1
        remaining_drop[target] *= 0.5

    schedule = PulseSchedule([candidates[i] for i in level_index])
    return HeuristicResult(
        schedule=schedule,
        sensitivities=list(sensitivities),
        budget_average_pulses=budget_average_pulses,
    )
