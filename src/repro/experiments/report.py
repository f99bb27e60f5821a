"""Markdown report generation for experiment results.

Turns the assembled result dataclasses of the experiments into markdown
tables, so the documented numbers can be
regenerated mechanically from a benchmark run instead of being copied by
hand.

Since the scenario runner landed, reports can also be built straight from
the on-disk result store (:func:`build_report_from_store`): every registered
experiment whose grid is fully present in the store is assembled and
rendered — no recomputation, so ``python -m repro.experiments report``
after an (even interrupted, then resumed) ``run all`` is instant.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.experiments.fig1b import Fig1bResult
from repro.experiments.fig2 import Fig2Result
from repro.experiments.table1 import PAPER_CLEAN_ACCURACY, Table1Result
from repro.experiments.table2 import Table2Result


def _markdown_table(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a GitHub-flavoured markdown table."""
    lines = ["| " + " | ".join(str(h) for h in header) + " |"]
    lines.append("|" + "|".join("---" for _ in header) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines)


def _fmt(value: Optional[float], digits: int = 2) -> str:
    return "-" if value is None else f"{value:.{digits}f}"


def fig1b_markdown(result: Fig1bResult) -> str:
    """Markdown table of the Fig. 1(b) noise-variance series."""
    rows = [
        (int(bits), f"{slicing:.4f}", f"{thermometer:.4f}")
        for bits, slicing, thermometer in zip(result.bits, result.bit_slicing, result.thermometer)
    ]
    return _markdown_table(["bits", "bit slicing (norm. var)", "thermometer (norm. var)"], rows)


def fig2_markdown(result: Fig2Result) -> str:
    """Markdown table of the layer-wise sensitivity analysis."""
    rows = [(entry.layer_name, _fmt(entry.accuracy)) for entry in result.sensitivities]
    table = _markdown_table(["target layer", "accuracy %"], rows)
    return (
        f"Clean accuracy: {result.clean_accuracy:.2f} % — noise sigma {result.sigma} "
        f"injected into one layer at a time.\n\n{table}"
    )


def table1_markdown(result: Table1Result) -> str:
    """Markdown table of the reproduced Table I with paper reference columns."""
    rows = []
    for row in result.rows:
        rows.append(
            (
                row.method,
                _fmt(row.sigma, 1),
                _fmt(row.paper_sigma, 0),
                _fmt(row.average_pulses),
                _fmt(row.accuracy),
                _fmt(row.paper_accuracy),
                _fmt(row.paper_average_pulses),
                str(row.schedule),
            )
        )
    table = _markdown_table(
        [
            "method",
            "sigma (ours)",
            "sigma (paper)",
            "avg pulses",
            "accuracy %",
            "paper acc %",
            "paper avg pulses",
            "schedule",
        ],
        rows,
    )
    return (
        f"Clean accuracy: {result.clean_accuracy:.2f} % "
        f"(paper: {PAPER_CLEAN_ACCURACY} %).\n\n{table}"
    )


def table2_markdown(result: Table2Result) -> str:
    """Markdown table of the reproduced Table II with paper reference columns."""
    rows = []
    for row in result.rows:
        rows.append(
            (
                row.method,
                _fmt(row.sigma, 1),
                _fmt(row.paper_sigma, 0),
                _fmt(row.average_pulses),
                _fmt(row.accuracy),
                _fmt(row.paper_accuracy),
            )
        )
    table = _markdown_table(
        ["method", "sigma (ours)", "sigma (paper)", "avg pulses", "accuracy %", "paper acc %"],
        rows,
    )
    return f"Clean accuracy: {result.clean_accuracy:.2f} %.\n\n{table}"


def encoding_ablation_markdown(result) -> str:
    """Markdown table of the A1 encoding-scheme ablation."""
    rows = [
        (row.encoding, _fmt(row.sigma, 1), _fmt(row.effective_noise_std, 3), _fmt(row.accuracy))
        for row in result.rows
    ]
    table = _markdown_table(
        ["encoding", "sigma", "accumulated noise std", "accuracy %"], rows
    )
    return f"Activation levels: {result.levels}.\n\n{table}"


def pla_error_markdown(rows) -> str:
    """Markdown table of the A2 PLA approximation-error ablation."""
    body = [
        (row.num_pulses, row.mode, f"{row.mean_abs_error:.4f}") for row in rows
    ]
    return _markdown_table(["pulses", "rounding mode", "mean abs error"], body)


def gamma_tradeoff_markdown(rows) -> str:
    """Markdown table of the A3 gamma trade-off ablation."""
    body = [
        (f"{row.gamma:.4g}", _fmt(row.average_pulses), _fmt(row.accuracy), str(row.schedule))
        for row in rows
    ]
    return _markdown_table(["gamma", "avg pulses", "accuracy %", "schedule"], body)


#: Section metadata per registry identifier: (title, renderer).
_SECTIONS = {
    "fig1b": ("Fig. 1(b) — encoding noise variance", fig1b_markdown),
    "fig2": ("Fig. 2 — layer-wise noise sensitivity", fig2_markdown),
    "table1": ("Table I — Baseline / PLA / GBO", table1_markdown),
    "table2": ("Table II — synergy with NIA", table2_markdown),
    "ablation_encoding": ("Ablation A1 — encoding schemes end to end", encoding_ablation_markdown),
    "ablation_pla_error": ("Ablation A2 — PLA approximation error", pla_error_markdown),
    "ablation_gamma": ("Ablation A3 — GBO gamma trade-off", gamma_tradeoff_markdown),
}


def full_report(
    fig1b: Optional[Fig1bResult] = None,
    fig2: Optional[Fig2Result] = None,
    table1: Optional[Table1Result] = None,
    table2: Optional[Table2Result] = None,
    title: str = "Reproduction report",
    **extra_sections: Any,
) -> str:
    """Assemble a complete markdown report from whichever results are given.

    ``extra_sections`` accepts any further registry identifier
    (``ablation_encoding`` etc.) with its assembled result.
    """
    results: Dict[str, Any] = {
        "fig1b": fig1b,
        "fig2": fig2,
        "table1": table1,
        "table2": table2,
    }
    results.update(extra_sections)
    unknown = [
        key for key, value in results.items() if value is not None and key not in _SECTIONS
    ]
    if unknown:
        # Silently dropping a section would make a run look complete while a
        # whole table is missing from the report.
        raise KeyError(
            f"no report section registered for {sorted(unknown)}; add it to "
            f"repro.experiments.report._SECTIONS"
        )
    sections: List[str] = [f"# {title}"]
    for identifier, (section_title, renderer) in _SECTIONS.items():
        result = results.get(identifier)
        if result is not None:
            sections.append(f"## {section_title}\n\n" + renderer(result))
    return "\n\n".join(sections) + "\n"


def build_report_from_store(
    store,
    profile=None,
    experiments: Optional[Sequence[str]] = None,
    title: str = "Reproduction report",
    engine: Optional[str] = None,
) -> str:
    """Build a markdown report purely from the scenario result store.

    For every requested registry experiment, the default grid is constructed
    and looked up in ``store``; experiments whose scenarios are all present
    are assembled and rendered, the rest are listed as pending.  Nothing is
    recomputed — this is the read-only face of the scenario runner.  (The
    clean-accuracy header comes from the pre-train checkpoint's metadata;
    only if even that is missing is a real bundle materialised.)
    """
    from types import SimpleNamespace

    from repro.experiments.common import cached_clean_accuracy, get_pretrained_bundle
    from repro.experiments.profiles import ExperimentProfile, get_profile
    from repro.experiments.registry import EXPERIMENTS, pin_grid_engine

    if not isinstance(profile, ExperimentProfile):
        profile = get_profile(profile)  # None -> REPRO_PROFILE / "fast"
    identifiers = list(experiments) if experiments else list(EXPERIMENTS)
    rendered: Dict[str, Any] = {}
    pending: List[str] = []
    bundle = None
    for identifier in identifiers:
        spec = EXPERIMENTS[identifier]
        # The same engine pin `run` applies, so a suite executed under
        # --engine E can be rendered with the matching report --engine E.
        grid = pin_grid_engine(spec.grid(profile), engine)
        results = {}
        complete = True
        for scenario in grid:
            cached = store.get(scenario)
            if cached is None:
                complete = False
                break
            results[scenario.hash] = cached
        if not complete:
            pending.append(identifier)
            continue
        if spec.needs_bundle and bundle is None:
            clean = cached_clean_accuracy(profile)
            if clean is not None:
                # Assemblers only read .profile and .clean_accuracy.
                bundle = SimpleNamespace(profile=profile, clean_accuracy=clean)
            else:
                bundle = get_pretrained_bundle(profile)
        rendered[identifier] = spec.assemble(grid, results, bundle if spec.needs_bundle else None)

    text = full_report(title=title, **rendered)
    if pending:
        text += (
            "\n## Pending\n\nNot yet in the result store (run "
            "`python -m repro.experiments run <id>`): "
            + ", ".join(f"`{identifier}`" for identifier in pending)
            + "\n"
        )
    return text


@dataclass
class SuiteStatus:
    """Completion snapshot of the registered suite against one store.

    ``done`` counts scenarios with a store result, ``claimed`` counts
    not-done scenarios under a live lease (a distributed worker is
    executing them right now), and ``pending`` is everything else.
    """

    total: int = 0
    done: int = 0
    claimed: int = 0
    per_experiment: Dict[str, Tuple[int, int]] = field(default_factory=dict)  # id -> (done, total)

    @property
    def pending(self) -> int:
        return self.total - self.done - self.claimed

    @property
    def complete(self) -> bool:
        return self.done >= self.total

    def banner(self) -> str:
        """One-line progress banner for streaming output."""
        detail = ", ".join(
            f"{identifier} {done}/{total}"
            for identifier, (done, total) in self.per_experiment.items()
        )
        return (
            f"> suite progress: {self.done}/{self.total} done · "
            f"{self.claimed} claimed · {self.pending} pending  [{detail}]"
        )


def suite_status(
    store,
    profile=None,
    experiments: Optional[Sequence[str]] = None,
    engine: Optional[str] = None,
) -> SuiteStatus:
    """Count done / claimed / pending scenarios of the registered suite.

    Uses the same grid construction as :func:`build_report_from_store`, so
    the banner and the report always describe the same scenario set.
    Claims come from live lease files under the store root (see
    :mod:`repro.distributed.lease`); a store without leases simply reports
    zero claimed.
    """
    from repro.distributed.lease import LeaseManager
    from repro.experiments.profiles import ExperimentProfile, get_profile
    from repro.experiments.registry import EXPERIMENTS, pin_grid_engine

    if not isinstance(profile, ExperimentProfile):
        profile = get_profile(profile)
    identifiers = list(experiments) if experiments else list(EXPERIMENTS)
    live_leases = set(LeaseManager(store.root).live_hashes()) if hasattr(store, "root") else set()
    status = SuiteStatus()
    for identifier in identifiers:
        grid = pin_grid_engine(EXPERIMENTS[identifier].grid(profile), engine)
        done = 0
        for scenario in grid:
            if store.get(scenario) is not None:
                done += 1
            elif scenario.hash in live_leases:
                status.claimed += 1
        status.per_experiment[identifier] = (done, len(grid))
        status.done += done
        status.total += len(grid)
    return status


def follow_report(
    store,
    profile=None,
    experiments: Optional[Sequence[str]] = None,
    engine: Optional[str] = None,
    title: str = "Reproduction report",
    interval: float = 2.0,
    max_polls: Optional[int] = None,
    sleep=time.sleep,
) -> Iterator[Tuple[str, SuiteStatus]]:
    """Yield ``(markdown, status)`` snapshots until the suite completes.

    The streaming face of :func:`build_report_from_store`: each snapshot is
    the full report re-rendered from whatever the store holds *right now*
    (completed experiments as tables, the rest as pending) with the
    :meth:`SuiteStatus.banner` completion banner appended — so tailing the
    output of ``python -m repro.experiments report --follow`` while N
    distributed workers drain the suite shows tables appearing as their
    grids finish.  Terminates after the first complete snapshot; a reader
    may of course stop earlier.  ``max_polls`` bounds the number of
    snapshots (for callers that poll a suite nothing is executing).
    """
    polls = 0
    while True:
        status = suite_status(store, profile=profile, experiments=experiments, engine=engine)
        text = build_report_from_store(
            store, profile=profile, experiments=experiments, title=title, engine=engine
        )
        yield text + "\n" + status.banner() + "\n", status
        polls += 1
        if status.complete or (max_polls is not None and polls >= max_polls):
            return
        sleep(interval)


def write_report(path: str, **results) -> str:
    """Write :func:`full_report` to ``path`` and return the rendered text."""
    text = full_report(**results)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return text
