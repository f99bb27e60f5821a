"""Experiment E3 — Table I: Baseline vs PLA-n vs GBO on the VGG9 network.

For each noise level the grid evaluates

* the 8-pulse baseline,
* uniform PLA schedules with 10/12/14/16 pulses per layer,
* two GBO runs with different latency weights ``gamma`` (the paper reports
  one GBO configuration matched to PLA-10's latency and one matched to
  PLA-14's).

Absolute accuracies differ from the paper because the substrate is a
reduced-width VGG9 on a synthetic CIFAR-like task (:mod:`repro.data`,
which says why); the reproduction targets the
qualitative shape: accuracy increases with pulse count, and GBO's
heterogeneous schedule beats the uniform schedule of similar average pulse
count.

Expressed as a grid on the scenario runner: one scenario per (method, sigma)
cell, so independent cells shard across worker processes and completed cells
resume from the result store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import api
from repro.core.schedule import PulseSchedule
from repro.experiments.common import ExperimentBundle
from repro.experiments.profiles import ExperimentProfile
from repro.utils.logging import get_logger

LOGGER = get_logger("repro.table1")

#: Paper-reported Table I values: (method, paper_sigma) -> (accuracy %, avg pulses).
PAPER_TABLE1: Dict[Tuple[str, float], Tuple[float, float]] = {
    ("Baseline", 10.0): (83.94, 8.0),
    ("PLA10", 10.0): (85.38, 10.0),
    ("PLA12", 10.0): (85.58, 12.0),
    ("PLA14", 10.0): (86.24, 14.0),
    ("PLA16", 10.0): (88.27, 16.0),
    ("GBO-short", 10.0): (86.36, 9.71),
    ("GBO-long", 10.0): (88.27, 14.85),
    ("Baseline", 15.0): (62.27, 8.0),
    ("PLA10", 15.0): (71.09, 10.0),
    ("PLA12", 15.0): (74.61, 12.0),
    ("PLA14", 15.0): (77.53, 14.0),
    ("PLA16", 15.0): (82.95, 16.0),
    ("GBO-short", 15.0): (76.35, 10.42),
    ("GBO-long", 15.0): (82.73, 14.28),
    ("Baseline", 20.0): (31.46, 8.0),
    ("PLA10", 20.0): (42.94, 10.0),
    ("PLA12", 20.0): (51.89, 12.0),
    ("PLA14", 20.0): (58.80, 14.0),
    ("PLA16", 20.0): (67.49, 16.0),
    ("GBO-short", 20.0): (46.33, 10.28),
    ("GBO-long", 20.0): (71.53, 14.57),
}

#: Paper-reported clean (noise-free) accuracy.
PAPER_CLEAN_ACCURACY = 90.80


@dataclass
class Table1Row:
    """One row of the reproduced Table I."""

    method: str
    sigma: float
    paper_sigma: Optional[float]
    schedule: List[int]
    average_pulses: float
    accuracy: float
    paper_accuracy: Optional[float] = None
    paper_average_pulses: Optional[float] = None


@dataclass
class Table1Result:
    """All rows of the reproduced Table I plus the clean reference accuracy."""

    clean_accuracy: float
    rows: List[Table1Row] = field(default_factory=list)

    def rows_for_sigma(self, sigma: float) -> List[Table1Row]:
        """Rows belonging to one noise level."""
        return [row for row in self.rows if row.sigma == sigma]

    def row(self, method: str, sigma: float) -> Table1Row:
        """Look up a single row by method name and noise level."""
        for candidate in self.rows:
            if candidate.method == method and candidate.sigma == sigma:
                return candidate
        raise KeyError(f"no row for method={method!r} sigma={sigma}")

    def format_table(self) -> str:
        """Human-readable rendering mirroring the paper's Table I layout."""
        header = (
            f"{'method':<10} {'sigma':>6} {'avg pulses':>11} {'accuracy %':>11} "
            f"{'paper acc %':>12}  schedule"
        )
        lines = [f"clean accuracy: {self.clean_accuracy:.2f}% (paper: {PAPER_CLEAN_ACCURACY}%)", header]
        for row in self.rows:
            paper_acc = f"{row.paper_accuracy:.2f}" if row.paper_accuracy is not None else "-"
            lines.append(
                f"{row.method:<10} {row.sigma:>6.1f} {row.average_pulses:>11.2f} "
                f"{row.accuracy:>11.2f} {paper_acc:>12}  {row.schedule}"
            )
        return "\n".join(lines)


def _paper_reference(method: str, paper_sigma: Optional[float]) -> Tuple[Optional[float], Optional[float]]:
    if paper_sigma is None:
        return None, None
    entry = PAPER_TABLE1.get((method, paper_sigma))
    if entry is None:
        return None, None
    return entry


def _paper_sigma_for(profile: ExperimentProfile, sigma_index: int) -> Optional[float]:
    """Paper noise level paired positionally with the profile's sigma rank."""
    if 0 <= sigma_index < len(profile.paper_sigmas):
        return profile.paper_sigmas[sigma_index]
    return None


# ---------------------------------------------------------------------------
# Scenario grid
# ---------------------------------------------------------------------------
def grid_sigma_rank(grid, spec) -> int:
    """Rank of a spec's sigma within its grid's sweep order.

    Used at *assembly* to pair each reproduced noise level positionally with
    the paper's sigma of the same rank.  Derived from the grid rather than
    stored in the spec: the pairing is presentation metadata, and baking a
    positional index into the content hash would give the same physical
    scenario a different identity (seed, store key) depending on which other
    sweep values it was run alongside.
    """
    order: list = []
    for member in grid:
        if member.sigma not in order:
            order.append(member.sigma)
    return order.index(spec.sigma)


def table1_grid(
    profile: ExperimentProfile,
    sigmas: Optional[Sequence[float]] = None,
    pla_pulse_counts: Sequence[int] = (10, 12, 14, 16),
    include_gbo: bool = True,
    engine=None,
    gbo_engine=None,
):
    """One scenario per Table I cell: (method, sigma)."""
    from repro.experiments.runner.spec import (
        ScenarioGrid,
        ScenarioSpec,
        engine_token,
        profile_axes,
    )

    gbo_engine = engine_token(gbo_engine)
    axes = profile_axes(profile, engine)
    sigmas = list(sigmas if sigmas is not None else profile.sigmas)
    specs = []
    for sigma in sigmas:
        uniform_methods = [("Baseline", profile.base_pulses)] + [
            (f"PLA{count}", count) for count in pla_pulse_counts
        ]
        for method, pulses in uniform_methods:
            specs.append(
                ScenarioSpec.create(
                    experiment="table1",
                    method=method,
                    sigma=sigma,
                    pulses=int(pulses),
                    **axes,
                )
            )
        if not include_gbo:
            continue
        for method, gamma in (
            ("GBO-short", profile.gamma_short),
            ("GBO-long", profile.gamma_long),
        ):
            specs.append(
                ScenarioSpec.create(
                    experiment="table1",
                    method=method,
                    sigma=sigma,
                    gamma=gamma,
                    gbo_engine=gbo_engine,
                    **axes,
                )
            )
    return ScenarioGrid(name="table1", specs=tuple(specs))


def execute_table1_scenario(ctx) -> Dict[str, Any]:
    """One Table I cell: evaluate a uniform schedule or train + evaluate GBO."""
    spec = ctx.spec
    state = ctx.pipeline()
    pla_errors = None
    if spec.method.startswith("GBO"):
        gbo = api.run_gbo(state, ctx.gbo_sim(), gamma=spec.gamma)
        schedule = gbo.result.schedule
        pla_errors = gbo.pla_errors
    else:
        schedule = PulseSchedule.uniform(
            state.model.num_encoded_layers(), int(spec.param("pulses"))
        )
    accuracy = api.evaluate(
        state, ctx.noisy_sim(pulses=schedule), num_repeats=state.profile.eval_repeats
    ).accuracy
    LOGGER.info(
        "table1 sigma=%.2f %s: acc=%.2f%% avg_pulses=%.2f",
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
        # Surface the selection's unmodelled PLA representation error (the
        # "GBO is blind to PLA error" finding) in the stored run output.
        result["pla_errors"] = [float(e) for e in pla_errors]
    return result


def assemble_table1(
    grid, results: Mapping[str, Mapping[str, Any]], bundle: ExperimentBundle
) -> Table1Result:
    """Fold per-cell scenario results back into the paper's table layout."""
    from repro.experiments.runner.spec import grid_profile

    profile = grid_profile(grid, fallback=bundle)
    result = Table1Result(clean_accuracy=bundle.clean_accuracy)
    for spec in grid:
        row = results[spec.hash]
        paper_sigma = _paper_sigma_for(profile, grid_sigma_rank(grid, spec))
        paper_accuracy, paper_pulses = _paper_reference(spec.method, paper_sigma)
        result.rows.append(
            Table1Row(
                method=spec.method,
                sigma=spec.sigma,
                paper_sigma=paper_sigma,
                schedule=[int(p) for p in row["schedule"]],
                average_pulses=row["average_pulses"],
                accuracy=row["accuracy"],
                paper_accuracy=paper_accuracy,
                paper_average_pulses=paper_pulses,
            )
        )
    return result
