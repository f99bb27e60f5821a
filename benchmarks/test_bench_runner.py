"""Benchmark E8 — scenario-runner throughput: serial vs cached resume.

Runs the fast-profile *evaluation suite* — every eval-only scenario of the
paper grid (Table I's uniform rows at all three noise levels, Fig. 2's
per-layer sensitivity sweep and the A1 encoding ablation) — two ways:

* serial: ``run_grid`` into a fresh result store (everything executes),
* cached resume: ``run_grid`` over a store that one serial run filled
  before the pairs (nothing recomputes), so neither leg needs the other's
  output.

Gate: the median of ``SAMPLES`` alternating (serial, resume) pairs at a
pinned 1-thread BLAS pool read back (``alternating_pairs``): a completed
suite must re-render at least 2x faster than it computes.  The parallel leg
(``run_grid(workers=N)``) is measured by benchmark E9
(``BENCH_dist.json``): local workers run the same lease-based drain as its
worker subprocesses.  ``benchmarks/results/BENCH_runner.json`` records the
samples and the core count.
"""

import itertools

import numpy as np

from benchmarks.conftest import alternating_pairs, emit_report, usable_cpus, write_bench_artifact
from repro.experiments.fig2 import fig2_grid
from repro.experiments.ablations import encoding_ablation_grid
from repro.experiments.runner import ResultStore, ScenarioGrid, run_grid
from repro.experiments.table1 import table1_grid

MIN_SPEEDUP = 2.0
SAMPLES = 3


def _eval_suite(profile) -> ScenarioGrid:
    """The eval-only scenarios of the paper grid (no GBO/NIA training)."""
    return ScenarioGrid.concat(
        "fast_eval_suite",
        [
            table1_grid(profile, include_gbo=False),
            fig2_grid(profile),
            encoding_ablation_grid(profile),
        ],
    )


def test_runner_throughput_and_bit_identity(bundle, capsys, results_dir, tmp_path):
    profile = bundle.profile
    grid = _eval_suite(profile)
    assert len(grid) >= 20, "the eval suite should be a real grid, not a toy"

    prepared = ResultStore(str(tmp_path / "prepared_store"))
    oracle = run_grid(grid, store=prepared, bundle=bundle)
    assert oracle.executed == len(grid)

    runs = []
    fresh = (ResultStore(str(tmp_path / f"store_{index}")) for index in itertools.count())
    pairs = alternating_pairs(
        lambda: runs.append(run_grid(grid, store=next(fresh), bundle=bundle)),
        lambda: runs.append(run_grid(grid, store=prepared, bundle=bundle)),
        SAMPLES,
    )
    assert sorted((run.executed, run.cached) for run in runs) == (
        [(0, len(grid))] * SAMPLES + [(len(grid), 0)] * SAMPLES
    )

    # ---- correctness: the store is exact ---------------------------------
    bit_identical = all(run.results == oracle.results for run in runs)
    assert bit_identical, "every run must be bit-identical to the serial oracle"

    serial_s = float(np.median(pairs["a_s_samples"]))
    resume_s = float(np.median(pairs["b_s_samples"]))
    resume_speedup = pairs["speedup"]
    cpus = usable_cpus()
    record = {
        "workload": {
            "grid": grid.name,
            "num_scenarios": len(grid),
            "profile": profile.name,
            "experiments": list(grid.experiments()),
            "legs": ["serial", "resume"],
        },
        "serial_s": serial_s,
        "resume_s": resume_s,
        **pairs,
        "usable_cpus": cpus,
        "bit_identical": bit_identical,
        "gated_on": "resume",
        "min_required_speedup": MIN_SPEEDUP,
    }
    write_bench_artifact(results_dir, "runner", record)

    report = "\n".join(
        [
            "Scenario-runner throughput, fast-profile evaluation suite",
            f"  grid            : {len(grid)} scenarios "
            f"({', '.join(grid.experiments())})",
            f"  serial          : {serial_s:8.2f} s  (median of {SAMPLES})",
            f"  cached resume   : {resume_s:8.3f} s  (median of {SAMPLES})",
            f"  bit-identical   : {bit_identical}",
            f"  gate            : resume >= {MIN_SPEEDUP:.0f}x -> {resume_speedup:.1f}x "
            f"(median of {SAMPLES} pairs, IQR {pairs['speedup_iqr']:.1f})",
            "  parallel leg    : see benchmarks/results/BENCH_dist.json",
            "  artifact        : benchmarks/results/BENCH_runner.json",
        ]
    )
    emit_report(capsys, results_dir, "runner_throughput", report)

    assert resume_speedup >= MIN_SPEEDUP
