"""Benchmark E8 — scenario-runner throughput: serial vs cached resume.

Runs the fast-profile *evaluation suite* — every eval-only scenario of the
paper grid (Table I's uniform rows at all three noise levels, Fig. 2's
per-layer sensitivity sweep and the A1 encoding ablation) — two ways:

* serial oracle (fresh result store),
* cached resume (the serial store again; nothing recomputes).

The gate is the resume path: a completed suite must re-render at least 2x
faster than it computes.  The parallel leg (``run_grid(workers=N)``) is
measured by benchmark E9 (``BENCH_dist.json``): local workers run the same
lease-based drain as its worker subprocesses, and E9 gates it at the worker
count the host has.  ``benchmarks/results/BENCH_runner.json`` records both
timings and the core count.
"""

import time

from benchmarks.conftest import emit_report, usable_cpus, write_bench_artifact
from repro.experiments.fig2 import fig2_grid
from repro.experiments.ablations import encoding_ablation_grid
from repro.experiments.runner import ResultStore, ScenarioGrid, run_grid
from repro.experiments.table1 import table1_grid

MIN_SPEEDUP = 2.0


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

    serial_store = ResultStore(str(tmp_path / "serial_store"))

    start = time.perf_counter()
    serial = run_grid(grid, store=serial_store, bundle=bundle)
    serial_s = time.perf_counter() - start
    assert serial.executed == len(grid)

    start = time.perf_counter()
    resumed = run_grid(grid, store=serial_store, bundle=bundle)
    resume_s = time.perf_counter() - start
    assert resumed.cached == len(grid) and resumed.executed == 0

    # ---- correctness: the store is exact ---------------------------------
    bit_identical = resumed.results == serial.results
    assert bit_identical, "resumed results must be bit-identical to the serial oracle"

    resume_speedup = serial_s / resume_s
    cpus = usable_cpus()
    record = {
        "workload": {
            "grid": grid.name,
            "num_scenarios": len(grid),
            "profile": profile.name,
            "experiments": list(grid.experiments()),
        },
        "serial_s": serial_s,
        "resume_s": resume_s,
        "resume_speedup": resume_speedup,
        "usable_cpus": cpus,
        "bit_identical": bit_identical,
        "gated_on": "resume",
        "speedup": resume_speedup,
        "min_required_speedup": MIN_SPEEDUP,
    }
    write_bench_artifact(results_dir, "runner", record)

    report = "\n".join(
        [
            "Scenario-runner throughput, fast-profile evaluation suite",
            f"  grid            : {len(grid)} scenarios "
            f"({', '.join(grid.experiments())})",
            f"  serial oracle   : {serial_s:8.2f} s",
            f"  cached resume   : {resume_s:8.3f} s  ({resume_speedup:.1f}x)",
            f"  bit-identical   : {bit_identical}",
            f"  gate            : resume >= {MIN_SPEEDUP:.0f}x -> {resume_speedup:.1f}x",
            "  parallel leg    : see benchmarks/results/BENCH_dist.json",
            "  artifact        : benchmarks/results/BENCH_runner.json",
        ]
    )
    emit_report(capsys, results_dir, "runner_throughput", report)

    assert resume_speedup >= MIN_SPEEDUP
