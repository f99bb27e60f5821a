#!/usr/bin/env python
"""Check every recorded benchmark artifact against its performance gate.

Reads every ``benchmarks/results/BENCH_*.json`` and fails (exit code 1) if
any recorded ``speedup`` is below its recorded ``min_required_speedup``:

* ``BENCH_engine.json`` — vectorized vs reference pulsed-MVM (gate >= 10x),
* ``BENCH_gbo.json``    — vectorized vs reference GBO step    (gate >= 5x),
* ``BENCH_runner.json`` — scenario-runner suite wall-clock    (gate >= 2x),
* ``BENCH_serve.json``  — serve cache-hit vs cold latency     (gate >= 50x),
* ``BENCH_batch.json``  — stacked K=8 ``evaluate_multi`` vs
  sequential sessions, median of 3 pairs                     (gate >= 1.1x),
* ``BENCH_dist.json``   — distributed drain / lease reclaim   (gate >= 1.5x).

The gates travel inside the artifacts themselves (each benchmark records
the bar it asserted), so this script never drifts from the benchmarks; it
only refuses silently-missing artifacts via ``REQUIRED_ARTIFACTS``.  For
``BENCH_gbo.json`` the workload block must additionally declare the compute
dtype it was measured at (``compute_dtype`` in ``VALID_COMPUTE_DTYPES``) —
a float32 number and a float64 number are not comparable, so an artifact
that does not say which it is fails the gate.

Usage::

    python benchmarks/check_bench_gates.py [results_dir]

Wired into the slow-marker benchmark run via
``benchmarks/test_bench_gates.py``.
"""

from __future__ import annotations

import glob
import json
import os
import sys
from typing import Dict, List, Tuple

#: Artifacts that must exist — a deleted artifact must not pass the gate run.
REQUIRED_ARTIFACTS = (
    "BENCH_engine.json",
    "BENCH_gbo.json",
    "BENCH_runner.json",
    "BENCH_serve.json",
    "BENCH_batch.json",
    "BENCH_dist.json",
)

#: Valid values for a recorded compute dtype (the process dtype policy).
VALID_COMPUTE_DTYPES = ("float32", "float64")

#: Artifacts whose workload block must declare its compute dtype.  The GBO
#: artifact is gated on a float32 vectorized run vs a float64 reference
#: oracle, so an artifact that does not say which dtype it measured is not
#: comparable across commits; the serve artifact records latencies of a
#: dtype-dependent simulation, so the same rule applies; the batch artifact
#: times model-level stacked evaluation (``evaluate_multi``) against
#: sequential sessions at whatever the process dtype policy is.
DTYPE_REQUIRED_ARTIFACTS = ("BENCH_gbo.json", "BENCH_serve.json", "BENCH_batch.json")

DEFAULT_RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def check_gates(results_dir: str = DEFAULT_RESULTS_DIR) -> Tuple[List[str], List[str]]:
    """Validate all benchmark artifacts in ``results_dir``.

    Returns ``(report_lines, failures)``; an empty ``failures`` list means
    every recorded speedup clears its gate and every required artifact is
    present and well-formed.
    """
    lines: List[str] = []
    failures: List[str] = []

    paths = sorted(glob.glob(os.path.join(results_dir, "BENCH_*.json")))
    found = {os.path.basename(path) for path in paths}
    for required in REQUIRED_ARTIFACTS:
        if required not in found:
            failures.append(f"{required}: required artifact missing from {results_dir}")

    for path in paths:
        name = os.path.basename(path)
        try:
            with open(path, encoding="utf-8") as handle:
                record: Dict = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            failures.append(f"{name}: unreadable ({error})")
            continue
        speedup = record.get("speedup")
        gate = record.get("min_required_speedup")
        if not isinstance(speedup, (int, float)) or not isinstance(gate, (int, float)):
            failures.append(f"{name}: missing speedup/min_required_speedup fields")
            continue
        status = "OK " if speedup >= gate else "FAIL"
        detail = ""
        if "gated_on" in record:
            detail = f"  (gated on: {record['gated_on']}, cpus={record.get('usable_cpus', '?')})"
        workload = record.get("workload")
        if name in DTYPE_REQUIRED_ARTIFACTS:
            dtype = (workload or {}).get("compute_dtype")
            if dtype not in VALID_COMPUTE_DTYPES:
                failures.append(
                    f"{name}: workload.compute_dtype is {dtype!r}, expected one "
                    f"of {VALID_COMPUTE_DTYPES}"
                )
            else:
                detail += f"  (compute_dtype: {dtype})"
        lines.append(f"  [{status}] {name:<22} speedup {speedup:7.1f}x  gate >= {gate:g}x{detail}")
        if speedup < gate:
            failures.append(f"{name}: recorded speedup {speedup:.2f}x below gate {gate:.2f}x")

    return lines, failures


def main(argv: List[str]) -> int:
    results_dir = argv[1] if len(argv) > 1 else DEFAULT_RESULTS_DIR
    lines, failures = check_gates(results_dir)
    print(f"benchmark gates ({results_dir}):")
    for line in lines:
        print(line)
    if failures:
        print("\ngate failures:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("all benchmark gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
