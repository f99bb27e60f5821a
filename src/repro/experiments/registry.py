"""Registry mapping experiment identifiers to their grids and assemblers.

Provides a single place where the paper's tables and figures are indexed
in code; the benchmark harness, the examples and the
``python -m repro.experiments`` CLI iterate over this registry so nothing
falls out of sync.

An experiment is run one way: its ``grid`` factory builds the scenarios,
:func:`~repro.experiments.runner.executor.run_grid` executes them (serially,
on local workers, or from the result store) and its ``assemble`` folds the
raw scenario results back into the experiment's result dataclass.
:func:`run_experiment` does the three steps for the registered grid; a
caller that wants other arguments (custom sigmas, a shorter sweep) builds
the grid with them and runs the same three steps.  Because assembly reads
only the grid and the results, a report can be rebuilt from the result
store alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Set

from repro.experiments import ablations
from repro.experiments.common import ExperimentBundle, get_pretrained_bundle
from repro.experiments.runner.scenarios import needs_bundle as _runner_needs_bundle
from repro.experiments.fig1b import assemble_fig1b, fig1b_grid
from repro.experiments.fig2 import assemble_fig2, fig2_grid
from repro.experiments.profiles import ExperimentProfile
from repro.experiments.table1 import assemble_table1, table1_grid
from repro.experiments.table2 import assemble_table2, table2_grid


@dataclass(frozen=True)
class ExperimentSpec:
    """Description of one reproducible experiment."""

    identifier: str
    paper_reference: str
    description: str
    benchmark: str
    #: Grid factory: ``grid(profile)`` -> the experiment's default grid.
    #: Profile-less experiments (fig1b, A2) ignore the argument.
    grid: Callable[[Optional[ExperimentProfile]], Any]
    #: ``assemble(grid, results, bundle)`` -> the experiment's result object;
    #: ``bundle`` may be None for profile-less experiments.
    assemble: Callable[[Any, Mapping[str, Any], Any], Any]
    #: Whether scenarios need a pre-trained model bundle.
    needs_bundle: bool = True
    #: Renders the assembled result for terminals (falls back to
    #: ``result.format_table()`` when None).
    formatter: Optional[Callable[[Any], str]] = None


def _fig1b_grid(profile=None):
    return fig1b_grid()


def _fig1b_assemble(grid, results, bundle=None):
    return assemble_fig1b(grid, results)


def _pla_error_grid(profile=None):
    return ablations.pla_error_grid()


def _pla_error_assemble(grid, results, bundle=None):
    return ablations.assemble_pla_error(grid, results)


def _gamma_grid(profile: ExperimentProfile):
    # The same three operating points the ablation benchmark sweeps.
    gammas = [profile.gamma_long, profile.gamma_short, 10 * profile.gamma_short]
    return ablations.gamma_tradeoff_grid(profile, gammas=gammas)


def _gamma_assemble(grid, results, bundle=None):
    return ablations.assemble_gamma_tradeoff(grid, results)


def _format_pla_rows(rows) -> str:
    lines = [f"{'pulses':>7} {'mode':<16} {'mean abs error':>15}"]
    for row in rows:
        lines.append(f"{row.num_pulses:>7d} {row.mode:<16} {row.mean_abs_error:>15.4f}")
    return "\n".join(lines)


def _format_gamma_rows(rows) -> str:
    lines = [f"{'gamma':>10} {'avg pulses':>11} {'accuracy %':>11}  schedule"]
    for row in rows:
        lines.append(
            f"{row.gamma:>10.4g} {row.average_pulses:>11.2f} {row.accuracy:>11.2f}  {row.schedule}"
        )
    return "\n".join(lines)


def _format_encoding_result(result) -> str:
    lines = [f"{'encoding':<14} {'sigma':>6} {'accumulated std':>16} {'accuracy %':>11}"]
    for row in result.rows:
        lines.append(
            f"{row.encoding:<14} {row.sigma:>6.1f} {row.effective_noise_std:>16.3f} "
            f"{row.accuracy:>11.2f}"
        )
    return "\n".join(lines)


EXPERIMENTS: Dict[str, ExperimentSpec] = {
    "fig1b": ExperimentSpec(
        identifier="fig1b",
        paper_reference="Figure 1(b)",
        description="Noise variance of bit slicing vs thermometer coding versus bit width",
        benchmark="benchmarks/test_bench_fig1b_noise_variance.py",
        grid=_fig1b_grid,
        assemble=_fig1b_assemble,
        needs_bundle=_runner_needs_bundle("fig1b"),
    ),
    "fig2": ExperimentSpec(
        identifier="fig2",
        needs_bundle=_runner_needs_bundle("fig2"),
        paper_reference="Figure 2",
        description="Layer-wise noise sensitivity of the pre-trained VGG9",
        benchmark="benchmarks/test_bench_fig2_sensitivity.py",
        grid=fig2_grid,
        assemble=assemble_fig2,
    ),
    "table1": ExperimentSpec(
        identifier="table1",
        needs_bundle=_runner_needs_bundle("table1"),
        paper_reference="Table I",
        description="Baseline / PLA-n / GBO accuracy under three noise levels",
        benchmark="benchmarks/test_bench_table1_gbo.py",
        grid=table1_grid,
        assemble=assemble_table1,
    ),
    "table2": ExperimentSpec(
        identifier="table2",
        needs_bundle=_runner_needs_bundle("table2"),
        paper_reference="Table II",
        description="Synergy of GBO with noise-injection adaptation (NIA)",
        benchmark="benchmarks/test_bench_table2_nia_synergy.py",
        grid=table2_grid,
        assemble=assemble_table2,
    ),
    "ablation_encoding": ExperimentSpec(
        identifier="ablation_encoding",
        needs_bundle=_runner_needs_bundle("ablation_encoding"),
        paper_reference="Section II-B (ablation A1)",
        description="End-to-end accuracy of thermometer vs bit-slicing encodings",
        benchmark="benchmarks/test_bench_ablation_encoding.py",
        grid=ablations.encoding_ablation_grid,
        assemble=ablations.assemble_encoding_ablation,
        formatter=_format_encoding_result,
    ),
    "ablation_pla_error": ExperimentSpec(
        identifier="ablation_pla_error",
        paper_reference="Section III-B (ablation A2)",
        description="PLA approximation error versus pulse count and rounding mode",
        benchmark="benchmarks/test_bench_ablation_pla_error.py",
        grid=_pla_error_grid,
        assemble=_pla_error_assemble,
        needs_bundle=_runner_needs_bundle("ablation_pla_error"),
        formatter=_format_pla_rows,
    ),
    "ablation_gamma": ExperimentSpec(
        identifier="ablation_gamma",
        needs_bundle=_runner_needs_bundle("ablation_gamma"),
        paper_reference="Eq. 6 (ablation A3)",
        description="Latency/accuracy trade-off as the GBO gamma is swept",
        benchmark="benchmarks/test_bench_ablation_gamma.py",
        grid=_gamma_grid,
        assemble=_gamma_assemble,
        formatter=_format_gamma_rows,
    ),
}


def pin_grid_engine(grid, engine: Optional[str]):
    """Rebuild a grid's engine-dependent specs with an explicit engine pin.

    Specs whose grid left ``engine=None`` belong to engine-independent
    computations (e.g. the A2 PLA-error ablation) — pinning them would only
    move their results to store keys the default grids never look up, so
    they pass through untouched.
    """
    if engine is None:
        return grid
    from repro.experiments.runner.spec import ScenarioGrid, ScenarioSpec

    def pin(spec: ScenarioSpec) -> ScenarioSpec:
        if spec.engine is None:
            return spec
        payload = {**spec.as_dict(), "engine": engine}
        if "sim" in payload:
            # An explicitly attached sim config carries its own engine
            # field; it must follow the pin or the spec would disagree
            # with the config it executes under.
            payload["sim"] = [
                ["engine", engine] if pair[0] == "engine" else pair
                for pair in payload["sim"]
            ]
        return ScenarioSpec.from_dict(payload)

    return ScenarioGrid(name=grid.name, specs=tuple(pin(s) for s in grid))


def suite_grid(
    identifiers: Optional[Sequence[str]] = None,
    profile: Optional[ExperimentProfile] = None,
    engine: Optional[str] = None,
    name: str = "suite",
):
    """One concatenated, engine-pinned grid over registered experiments.

    ``identifiers=None`` (or any list containing ``"all"``) selects every
    registered experiment.  This is the canonical "whole suite as one
    grid" constructor shared by the distributed worker entrypoints — any
    two workers given the same arguments build byte-identical spec sets,
    which is what lets them cooperate through nothing but the store.
    """
    from repro.experiments.runner.spec import ScenarioGrid

    if identifiers is None or "all" in identifiers:
        identifiers = list(EXPERIMENTS)
    unknown = [identifier for identifier in identifiers if identifier not in EXPERIMENTS]
    if unknown:
        raise KeyError(
            f"unknown experiment(s): {', '.join(unknown)}; available: {', '.join(EXPERIMENTS)}"
        )
    return ScenarioGrid.concat(
        name,
        [
            pin_grid_engine(EXPERIMENTS[identifier].grid(profile), engine)
            for identifier in identifiers
        ],
    )


def format_result(spec: ExperimentSpec, result: Any) -> str:
    """Render an assembled experiment result for terminals."""
    if spec.formatter is not None:
        return spec.formatter(result)
    return result.format_table()


def run_experiment(
    identifier: str,
    profile: Optional[ExperimentProfile] = None,
    workers: int = 0,
    store=None,
    engine: Optional[str] = None,
    resume: bool = True,
    bundle: Optional[ExperimentBundle] = None,
    batch: bool = True,
):
    """Run one registered experiment through the scenario runner.

    Returns ``(assembled result, GridRunResult)``.  This is the entry point
    of the CLI, the examples and the reproduction benchmarks: grid construction, execution (serial,
    parallel or resumed) and assembly all flow through the registry so every
    consumer sees the same scenarios.  ``batch`` (default on) lets the
    serial path stack compatible sibling ``api_eval`` scenarios into one
    multi-scenario forward; results are bit-identical either way.
    """
    from repro.experiments.runner.executor import run_grid

    try:
        spec = EXPERIMENTS[identifier]
    except KeyError as error:
        raise KeyError(
            f"unknown experiment {identifier!r}; available: {sorted(EXPERIMENTS)}"
        ) from error

    if spec.needs_bundle and bundle is None:
        bundle = get_pretrained_bundle(profile)
    if profile is None and bundle is not None:
        profile = bundle.profile

    grid = pin_grid_engine(spec.grid(profile), engine)
    outcome = run_grid(
        grid, workers=workers, store=store, bundle=bundle, resume=resume, batch=batch
    )
    assembled = spec.assemble(grid, outcome.results, bundle)
    return assembled, outcome


def registered_spec_hashes(
    profiles=None, engines: Optional[Sequence[Optional[str]]] = None
) -> Set[str]:
    """Spec hashes every registered grid can currently produce.

    The union over all registered profiles (or ``profiles``) and engine pins
    (default: the unpinned grid plus one pin per registered engine) of every
    experiment's default grid.  This is the result-store GC's notion of
    "live": entries outside it — stale spec schemas, retuned grids, but
    also results of grids built with non-default arguments (custom
    ``sigmas=``, profile overrides, ...) that no registered grid
    reproduces — are treated as prunable.  Callers keeping such results
    should gc with ``--dry-run`` first, or not at all.
    """
    from repro.backend import available_engines
    from repro.experiments.profiles import PROFILES

    if profiles is None:
        profiles = list(PROFILES.values())
    if engines is None:
        engines = (None, *available_engines())
    hashes: Set[str] = set()
    for profile in profiles:
        for spec in EXPERIMENTS.values():
            grid = spec.grid(profile)
            for engine in engines:
                for scenario in pin_grid_engine(grid, engine):
                    hashes.add(scenario.hash)
    return hashes


def describe_experiments() -> str:
    """Human-readable index of all registered experiments."""
    lines = ["id                | paper ref            | benchmark"]
    for spec in EXPERIMENTS.values():
        lines.append(
            f"{spec.identifier:<17} | {spec.paper_reference:<20} | {spec.benchmark}"
        )
    return "\n".join(lines)
