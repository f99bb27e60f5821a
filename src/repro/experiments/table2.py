"""Experiment E4 — Table II: synergy between GBO and noise-aware training.

Methods compared at every noise level (paper Table II):

* ``Baseline`` — pre-trained weights, 8-pulse encoding;
* ``NIA`` — weights fine-tuned with injected crossbar noise, 8 pulses;
* ``GBO`` — pre-trained weights, GBO-optimised pulse schedule;
* ``NIA+GBO`` — GBO schedule learned on top of the NIA-fine-tuned weights;
* ``NIA+PLA`` — NIA weights with a uniform 10-pulse schedule.

The expected shape (paper): NIA alone recovers most of the loss, GBO alone
helps less than NIA at high noise, and NIA+GBO is the best configuration at
every noise level.

Expressed as a grid on the scenario runner: one scenario per (method, sigma)
cell.  The NIA fine-tuning each sigma's three ``NIA*`` cells start from is a
shared *stage*: it is computed once in its own seeded RNG stream and cached
(in the result store's stage area, or in memory for one call), so the cells
stay independent — any of them can run first, in any process — while the
fine-tuning still happens only once per noise level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import api
from repro.core.schedule import PulseSchedule
from repro.experiments.common import ExperimentBundle, profile_token
from repro.experiments.profiles import ExperimentProfile
from repro.experiments.table1 import _paper_sigma_for, grid_sigma_rank
from repro.utils.logging import get_logger

LOGGER = get_logger("repro.table2")

#: Paper-reported Table II values: (method, paper_sigma) -> (accuracy %, avg pulses).
PAPER_TABLE2: Dict[Tuple[str, float], Tuple[float, float]] = {
    ("Baseline", 10.0): (83.94, 8.0),
    ("NIA", 10.0): (88.35, 8.0),
    ("GBO", 10.0): (86.36, 9.71),
    ("NIA+GBO", 10.0): (88.93, 9.71),
    ("NIA+PLA", 10.0): (88.91, 10.0),
    ("Baseline", 15.0): (62.27, 8.0),
    ("NIA", 15.0): (84.84, 8.0),
    ("GBO", 15.0): (76.35, 10.21),
    ("NIA+GBO", 15.0): (86.45, 10.24),
    ("NIA+PLA", 15.0): (85.17, 10.0),
    ("Baseline", 20.0): (31.46, 8.0),
    ("NIA", 20.0): (78.78, 8.0),
    ("GBO", 20.0): (46.33, 10.28),
    ("NIA+GBO", 20.0): (81.33, 10.28),
    ("NIA+PLA", 20.0): (80.29, 10.0),
}


@dataclass
class Table2Row:
    """One row of the reproduced Table II."""

    method: str
    sigma: float
    paper_sigma: Optional[float]
    accuracy: float
    average_pulses: float
    schedule: List[int]
    paper_accuracy: Optional[float] = None
    paper_average_pulses: Optional[float] = None


@dataclass
class Table2Result:
    """All rows of the reproduced Table II."""

    clean_accuracy: float
    rows: List[Table2Row] = field(default_factory=list)

    def row(self, method: str, sigma: float) -> Table2Row:
        """Look up a single row by method name and noise level."""
        for candidate in self.rows:
            if candidate.method == method and candidate.sigma == sigma:
                return candidate
        raise KeyError(f"no row for method={method!r} sigma={sigma}")

    def rows_for_sigma(self, sigma: float) -> List[Table2Row]:
        """Rows belonging to one noise level."""
        return [row for row in self.rows if row.sigma == sigma]

    def format_table(self) -> str:
        """Human-readable rendering mirroring the paper's Table II layout."""
        header = (
            f"{'method':<10} {'sigma':>6} {'avg pulses':>11} {'accuracy %':>11} "
            f"{'paper acc %':>12}"
        )
        lines = [f"clean accuracy: {self.clean_accuracy:.2f}%", header]
        for row in self.rows:
            paper_acc = f"{row.paper_accuracy:.2f}" if row.paper_accuracy is not None else "-"
            lines.append(
                f"{row.method:<10} {row.sigma:>6.1f} {row.average_pulses:>11.2f} "
                f"{row.accuracy:>11.2f} {paper_acc:>12}"
            )
        return "\n".join(lines)


def _paper_reference(method: str, paper_sigma: Optional[float]) -> Tuple[Optional[float], Optional[float]]:
    if paper_sigma is None:
        return None, None
    entry = PAPER_TABLE2.get((method, paper_sigma))
    if entry is None:
        return None, None
    return entry


#: Methods of the paper's Table II, in its row order.
TABLE2_METHODS = ("Baseline", "GBO", "NIA", "NIA+GBO", "NIA+PLA")


# ---------------------------------------------------------------------------
# Scenario grid
# ---------------------------------------------------------------------------
def table2_grid(
    profile: ExperimentProfile,
    sigmas: Optional[Sequence[float]] = None,
    nia_pla_pulses: int = 10,
    gbo_gamma: Optional[float] = None,
    engine=None,
    gbo_engine=None,
):
    """One scenario per Table II cell: (method, sigma)."""
    from repro.experiments.runner.spec import (
        ScenarioGrid,
        ScenarioSpec,
        engine_token,
        profile_axes,
    )

    gbo_engine = engine_token(gbo_engine)
    axes = profile_axes(profile, engine)
    sigmas = list(sigmas if sigmas is not None else profile.sigmas)
    # Default gamma: a fifth of the profile's gamma_long — after NIA
    # fine-tuning the loss is far less sensitive to the injected noise, so a
    # gamma tuned for the pre-trained model would let the latency term
    # dominate and collapse the schedule to the shortest pulses.  The paper's
    # Table II likewise reports GBO at its accuracy-leaning operating point.
    gamma = float(gbo_gamma) if gbo_gamma is not None else profile.gamma_long * 0.2
    specs = []
    for sigma in sigmas:
        for method in TABLE2_METHODS:
            uses_gbo = method in ("GBO", "NIA+GBO")
            specs.append(
                ScenarioSpec.create(
                    experiment="table2",
                    method=method,
                    sigma=sigma,
                    gamma=gamma if uses_gbo else None,
                    gbo_engine=gbo_engine if uses_gbo else None,
                    nia_pla_pulses=int(nia_pla_pulses),
                    **axes,
                )
            )
    return ScenarioGrid(name="table2", specs=tuple(specs))


def _nia_weights(ctx, state) -> Dict[str, Any]:
    """The NIA-fine-tuned weights for this scenario's noise level (cached).

    The :func:`repro.api.run_nia` stage runs in its own RNG stream, on its
    own fresh loaders and from the pre-trained snapshot, so every scenario
    that needs it computes the identical weights regardless of order or
    process.  The engine is part of the stage identity and pinned during
    training: the two engines consume the RNG stream differently for noisy
    reads, so NIA weights trained under one engine are not the other's.
    """
    profile = state.profile
    key = {
        "kind": "nia_state",
        "profile": profile_token(profile),
        "sigma": float(ctx.spec.sigma),
        "epochs": profile.nia_epochs,
        "learning_rate": profile.nia_lr,
        "pulses": profile.base_pulses,
        "relative": profile.noise_relative_to_fan_in,
        "engine": ctx.engine_name(),
    }
    sim = ctx.noisy_sim(pulses=profile.base_pulses)
    return ctx.stage_state(key, lambda: api.run_nia(state, sim).weights)


def execute_table2_scenario(ctx) -> Dict[str, Any]:
    """One Table II cell: (starting weights, schedule source) per method."""
    spec = ctx.spec
    state = ctx.pipeline()
    profile = state.profile
    weights = _nia_weights(ctx, state) if "NIA" in spec.method else None

    num_layers = state.model.num_encoded_layers()
    pla_errors = None
    if spec.method in ("GBO", "NIA+GBO"):
        gbo = api.run_gbo(state, ctx.gbo_sim(), gamma=spec.gamma, weights=weights)
        schedule = gbo.result.schedule
        pla_errors = gbo.pla_errors
    elif spec.method == "NIA+PLA":
        schedule = PulseSchedule.uniform(num_layers, int(spec.param("nia_pla_pulses", 10)))
    else:  # Baseline / NIA: the 8-pulse baseline encoding
        schedule = PulseSchedule.uniform(num_layers, profile.base_pulses)

    accuracy = api.evaluate(
        state,
        ctx.noisy_sim(pulses=schedule),
        weights=weights,
        num_repeats=profile.eval_repeats,
    ).accuracy
    LOGGER.info(
        "table2 sigma=%.2f %s: acc=%.2f%% avg_pulses=%.2f",
        spec.sigma,
        spec.method,
        accuracy,
        schedule.average_pulses,
    )
    result = {
        "schedule": schedule.as_list(),
        "average_pulses": schedule.average_pulses,
        "accuracy": accuracy,
    }
    if pla_errors is not None:
        result["pla_errors"] = [float(e) for e in pla_errors]
    return result


def assemble_table2(
    grid, results: Mapping[str, Mapping[str, Any]], bundle: ExperimentBundle
) -> Table2Result:
    """Fold per-cell scenario results back into the paper's table layout."""
    from repro.experiments.runner.spec import grid_profile

    result = Table2Result(clean_accuracy=bundle.clean_accuracy)
    profile = grid_profile(grid, fallback=bundle)
    for spec in grid:
        row = results[spec.hash]
        paper_sigma = _paper_sigma_for(profile, grid_sigma_rank(grid, spec))
        paper_accuracy, paper_pulses = _paper_reference(spec.method, paper_sigma)
        result.rows.append(
            Table2Row(
                method=spec.method,
                sigma=spec.sigma,
                paper_sigma=paper_sigma,
                accuracy=row["accuracy"],
                average_pulses=row["average_pulses"],
                schedule=[int(p) for p in row["schedule"]],
                paper_accuracy=paper_accuracy,
                paper_average_pulses=paper_pulses,
            )
        )
    return result
