"""Benchmark E8 — scenario-runner throughput: serial vs cached resume.

Runs the fast-profile *evaluation suite* — every eval-only scenario of the
paper grid (Table I's uniform rows at all three noise levels, Fig. 2's
per-layer sensitivity sweep and the A1 encoding ablation) — two ways:

* serial: ``run_grid`` into a fresh result store (everything executes),
* cached resume: ``run_grid`` over the store of the session's serial
  oracle (``eval_suite_oracle`` in ``benchmarks/conftest.py``, shared with
  benchmark E9), filled before the pairs (nothing recomputes), so neither
  leg needs the other's output.

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
from repro.experiments.runner import ResultStore, run_grid

MIN_SPEEDUP = 2.0
SAMPLES = 3


def test_runner_throughput_and_bit_identity(
    bundle, eval_suite_oracle, capsys, results_dir, tmp_path
):
    profile = bundle.profile
    grid = eval_suite_oracle.grid
    assert len(grid) >= 20, "the eval suite should be a real grid, not a toy"

    prepared = ResultStore(eval_suite_oracle.store_dir)
    oracle = eval_suite_oracle.outcome

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
