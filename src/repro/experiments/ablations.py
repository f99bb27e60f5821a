"""Ablation experiments beyond the paper's main tables.

``A1`` — end-to-end encoding comparison: accuracy of the pre-trained network
when the per-layer accumulated noise follows the bit-slicing formula versus
the thermometer formula for the same amount of carried information.

``A2`` — PLA approximation error: mean absolute representation error of PLA
re-encoding as a function of the pulse count and of the rounding mode
(towards the extremes, as in the paper, versus nearest).

``A3`` — gamma trade-off: GBO's selected average pulse count and resulting
accuracy as the latency weight gamma of Eq. 6 is swept, exposing the
accuracy/latency Pareto front the paper's two GBO rows sample.

All three are grids on the scenario runner: one scenario per (encoding,
sigma) cell for A1, per pulse count for A2 and per gamma for A3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro import api
from repro.core.pla import pla_approximation_error
from repro.crossbar.analysis import bit_slicing_noise_variance, thermometer_noise_variance
from repro.experiments.common import ExperimentBundle
from repro.experiments.profiles import ExperimentProfile
from repro.experiments.runner.spec import stable_seed
from repro.tensor.random import RandomState
from repro.utils.logging import get_logger

LOGGER = get_logger("repro.ablations")


# ---------------------------------------------------------------------------
# A1 — encoding scheme comparison on the full network
# ---------------------------------------------------------------------------
@dataclass
class EncodingAblationRow:
    """Accuracy of one encoding scheme at one noise level."""

    encoding: str
    sigma: float
    effective_noise_std: float
    accuracy: float


@dataclass
class EncodingAblationResult:
    """Rows of the encoding-scheme ablation (A1)."""

    levels: int
    rows: List[EncodingAblationRow] = field(default_factory=list)

    def accuracy(self, encoding: str, sigma: float) -> float:
        """Accuracy for a given encoding and noise level."""
        for row in self.rows:
            if row.encoding == encoding and row.sigma == sigma:
                return row.accuracy
        raise KeyError(f"no row for encoding={encoding!r} sigma={sigma}")


def encoding_ablation_grid(
    profile: ExperimentProfile,
    sigmas: Optional[Sequence[float]] = None,
    engine=None,
):
    """One scenario per (encoding scheme, noise level) cell."""
    from repro.experiments.runner.spec import ScenarioGrid, ScenarioSpec, profile_axes

    axes = profile_axes(profile, engine)
    sigmas = list(sigmas if sigmas is not None else profile.sigmas)
    specs = tuple(
        ScenarioSpec.create(
            experiment="ablation_encoding",
            method=encoding,
            sigma=sigma,
            **axes,
        )
        for sigma in sigmas
        for encoding in ("thermometer", "bit_slicing")
    )
    return ScenarioGrid(name="ablation_encoding", specs=specs)


def _accumulated_std(ctx) -> float:
    """An A1 cell's accumulated read-noise std under its encoding's closed form.

    Both encodings carry the same information (the layer's 9 activation
    levels need ``ceil(log2(9)) = 4`` bit-slicing pulses or 8 thermometer
    pulses).
    """
    profile, sigma = ctx.profile, ctx.spec.sigma
    if ctx.spec.method == "thermometer":
        return math.sqrt(thermometer_noise_variance(profile.base_pulses, sigma=sigma))
    slicing_bits = max(1, math.ceil(math.log2(profile.activation_levels)))
    return math.sqrt(bit_slicing_noise_variance(slicing_bits, sigma=sigma))


def encoding_evaluation(ctx):
    """A1 cell: end-to-end accuracy with one encoding's folded noise model.

    The per-layer accumulated noise standard deviation is set according to
    each scheme's closed-form variance, so the comparison isolates the
    encoding effect the paper's Section II-B analyses.  The encoded layers
    divide sigma by ``sqrt(num_pulses)``, so the per-pulse sigma is the one
    that lands exactly on the target accumulated std.
    """
    from repro.experiments.runner.scenarios import Evaluation

    base_pulses = ctx.profile.base_pulses
    per_pulse_sigma = _accumulated_std(ctx) * math.sqrt(base_pulses)
    sim = ctx.noisy_sim(pulses=base_pulses, sigma=per_pulse_sigma).with_changes(
        sigma_relative_to_fan_in=False
    )
    return Evaluation(sim, ctx.profile.eval_repeats)


def encoding_result(ctx, evaluation) -> Dict[str, Any]:
    """The stored A1 cell: levels, accumulated noise std and accuracy."""
    accumulated_std = _accumulated_std(ctx)
    LOGGER.info(
        "ablation A1 sigma=%.2f %s: accumulated_std=%.3f acc=%.2f%%",
        ctx.spec.sigma,
        ctx.spec.method,
        accumulated_std,
        evaluation.accuracy,
    )
    return {
        "levels": ctx.profile.activation_levels,
        "effective_noise_std": accumulated_std,
        "accuracy": evaluation.accuracy,
    }


def assemble_encoding_ablation(
    grid, results: Mapping[str, Mapping[str, Any]], bundle: ExperimentBundle
) -> EncodingAblationResult:
    from repro.experiments.runner.spec import grid_profile

    result = EncodingAblationResult(
        levels=grid_profile(grid, fallback=bundle).activation_levels
    )
    for spec in grid:
        row = results[spec.hash]
        result.rows.append(
            EncodingAblationRow(
                encoding=spec.method,
                sigma=spec.sigma,
                effective_noise_std=row["effective_noise_std"],
                accuracy=row["accuracy"],
            )
        )
    return result


# ---------------------------------------------------------------------------
# A2 — PLA approximation error
# ---------------------------------------------------------------------------
@dataclass
class PLAErrorRow:
    """Approximation error of PLA for one pulse count and rounding mode."""

    num_pulses: int
    mode: str
    mean_abs_error: float


def pla_error_grid(
    pulse_counts: Sequence[int] = (4, 6, 8, 10, 12, 14, 16),
    levels: int = 9,
    num_samples: int = 4096,
    saturation: float = 0.6,
    seed: int = 0,
):
    """One scenario per pulse count (both rounding modes per scenario)."""
    from repro.experiments.runner.spec import ScenarioGrid, ScenarioSpec

    specs = tuple(
        ScenarioSpec.create(
            experiment="ablation_pla_error",
            method=f"pulses{int(pulses)}",
            seed=seed,
            pulses=int(pulses),
            levels=int(levels),
            num_samples=int(num_samples),
            saturation=float(saturation),
        )
        for pulses in pulse_counts
    )
    return ScenarioGrid(name="ablation_pla_error", specs=specs)


def _pla_sample_values(
    levels: int, num_samples: int, saturation: float, seed: int
) -> np.ndarray:
    """The synthetic saturating activation distribution of A2.

    Seeded independently of the pulse count so every scenario of the sweep
    re-encodes the *same* values — the error comparison across pulse counts
    stays apples-to-apples even though each scenario runs in isolation.
    """
    value_seed = stable_seed(
        {
            "kind": "pla_values",
            "levels": levels,
            "num_samples": num_samples,
            "saturation": saturation,
            "base": seed,
        }
    )
    rng = RandomState(value_seed)
    grid_values = np.linspace(-1.0, 1.0, levels)
    uniform_part = rng.choice(grid_values, size=num_samples)
    saturated_part = rng.choice(np.array([-1.0, 1.0]), size=num_samples)
    mask = rng.uniform(size=num_samples) < saturation
    return np.where(mask, saturated_part, uniform_part)


def execute_pla_error_scenario(ctx) -> Dict[str, Any]:
    """A2 cell: PLA re-encoding error at one pulse count, both modes."""
    spec = ctx.spec
    values = _pla_sample_values(
        levels=int(spec.param("levels", 9)),
        num_samples=int(spec.param("num_samples", 4096)),
        saturation=float(spec.param("saturation", 0.6)),
        seed=ctx.base_seed(),
    )
    pulses = int(spec.param("pulses"))
    return {
        "num_pulses": pulses,
        "errors": {
            mode: pla_approximation_error(values, pulses, mode=mode)
            for mode in ("toward_extremes", "nearest")
        },
    }


def assemble_pla_error(grid, results: Mapping[str, Mapping[str, Any]]) -> List[PLAErrorRow]:
    rows: List[PLAErrorRow] = []
    for spec in grid:
        row = results[spec.hash]
        for mode in ("toward_extremes", "nearest"):
            rows.append(
                PLAErrorRow(
                    num_pulses=int(row["num_pulses"]),
                    mode=mode,
                    mean_abs_error=row["errors"][mode],
                )
            )
    return rows


# ---------------------------------------------------------------------------
# A3 — gamma trade-off
# ---------------------------------------------------------------------------
@dataclass
class GammaTradeoffRow:
    """GBO outcome for one latency weight gamma."""

    gamma: float
    average_pulses: float
    accuracy: float
    schedule: List[int]


def gamma_tradeoff_grid(
    profile: ExperimentProfile,
    gammas: Sequence[float],
    sigma: Optional[float] = None,
    engine=None,
    gbo_engine=None,
):
    """One scenario per latency weight gamma."""
    from repro.experiments.runner.spec import (
        ScenarioGrid,
        ScenarioSpec,
        engine_token,
        profile_axes,
    )

    gbo_engine = engine_token(gbo_engine)
    axes = profile_axes(profile, engine)
    if sigma is None:
        sigma = profile.sigmas[len(profile.sigmas) // 2]
    # Named by value, not sweep position: the same gamma must hash (and
    # seed) identically no matter which other gammas it runs alongside.
    # Duplicate gammas in one sweep are rejected by the grid's dedup check.
    specs = tuple(
        ScenarioSpec.create(
            experiment="ablation_gamma",
            method=f"gamma{float(gamma):g}",
            sigma=float(sigma),
            gamma=float(gamma),
            gbo_engine=gbo_engine,
            **axes,
        )
        for gamma in gammas
    )
    return ScenarioGrid(name="ablation_gamma", specs=specs)


def execute_gamma_scenario(ctx) -> Dict[str, Any]:
    """A3 cell: one GBO training + evaluation at one gamma."""
    spec = ctx.spec
    state = ctx.pipeline()
    gbo = api.run_gbo(state, ctx.gbo_sim(), gamma=spec.gamma)
    schedule = gbo.result.schedule
    accuracy = api.evaluate(
        state, ctx.noisy_sim(pulses=schedule), num_repeats=state.profile.eval_repeats
    ).accuracy
    LOGGER.info(
        "ablation A3 gamma=%.4g: avg_pulses=%.2f acc=%.2f%%",
        spec.gamma,
        schedule.average_pulses,
        accuracy,
    )
    return {
        "gamma": spec.gamma,
        "schedule": schedule.as_list(),
        "average_pulses": schedule.average_pulses,
        "accuracy": accuracy,
        "pla_errors": [float(e) for e in gbo.pla_errors],
    }


def assemble_gamma_tradeoff(
    grid, results: Mapping[str, Mapping[str, Any]]
) -> List[GammaTradeoffRow]:
    rows: List[GammaTradeoffRow] = []
    for spec in grid:
        row = results[spec.hash]
        rows.append(
            GammaTradeoffRow(
                gamma=row["gamma"],
                average_pulses=row["average_pulses"],
                accuracy=row["accuracy"],
                schedule=[int(p) for p in row["schedule"]],
            )
        )
    return rows
