"""Benchmark E7 — simulation-engine throughput on a VGG9-block pulsed MVM.

Times ReferenceEngine (loop per pulse, loop per tile) against the default
VectorizedEngine (batched pulses x tiles x batch, one noise draw) on a
conv-block-shaped workload of the paper's VGG9 network: a 256 x 1152 binary
matrix (128->256 channels, 3x3 kernel) split over 18 physical 128x128 tiles,
a batch of 64 im2col columns and the baseline 8-pulse thermometer train.

The acceptance bar for the vectorized backend is a >= 10x speedup; the
measured numbers are persisted to ``benchmarks/results/BENCH_engine.json``
so future PRs can track the performance trajectory.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import emit_report, write_bench_artifact
from repro.backend import get_engine
from repro.crossbar import (
    CrossbarConfig,
    GaussianReadNoise,
    ThermometerEncoder,
    TiledCrossbar,
    pulsed_mvm,
)
from repro.tensor.random import RandomState

#: VGG9 conv block: 128 -> 256 channels, 3x3 kernel => 256 x 1152 weights.
OUT_FEATURES = 256
IN_FEATURES = 1152
BATCH = 64
NUM_PULSES = 8
SIGMA = 1.0
REPEATS = 5
MIN_SPEEDUP = 10.0


def _build_workload():
    rng = RandomState(0)
    weights = np.where(rng.uniform(size=(OUT_FEATURES, IN_FEATURES)) < 0.5, -1.0, 1.0)
    crossbar = TiledCrossbar(
        weights,
        config=CrossbarConfig(noise=GaussianReadNoise(SIGMA), max_rows=128, max_cols=128),
        rng=RandomState(1),
    )
    values = rng.choice(np.linspace(-1, 1, 9), size=(BATCH, IN_FEATURES))
    return crossbar, values, ThermometerEncoder(NUM_PULSES)


def _time_engine(engine_name, crossbar, values, encoder) -> float:
    """Best-of-``REPEATS`` wall-clock seconds for one full pulsed MVM."""
    engine = get_engine(engine_name)
    pulsed_mvm(crossbar, values, encoder, engine=engine)  # warm-up
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        pulsed_mvm(crossbar, values, encoder, engine=engine)
        best = min(best, time.perf_counter() - start)
    return best


def test_engine_throughput_speedup(capsys, results_dir):
    crossbar, values, encoder = _build_workload()
    assert crossbar.num_tiles == 18

    reference_s = _time_engine("reference", crossbar, values, encoder)
    vectorized_s = _time_engine("vectorized", crossbar, values, encoder)
    speedup = reference_s / vectorized_s

    record = {
        "workload": {
            "out_features": OUT_FEATURES,
            "in_features": IN_FEATURES,
            "batch": BATCH,
            "num_pulses": NUM_PULSES,
            "sigma": SIGMA,
            "num_tiles": crossbar.num_tiles,
            "encoder": "thermometer",
        },
        "reference_ms": reference_s * 1e3,
        "vectorized_ms": vectorized_s * 1e3,
        "speedup": speedup,
        "min_required_speedup": MIN_SPEEDUP,
        "timing": f"best of {REPEATS}",
    }
    write_bench_artifact(results_dir, "engine", record)

    report = "\n".join(
        [
            "Simulation-engine throughput, VGG9-block pulsed MVM",
            f"  workload: {BATCH} x {IN_FEATURES} inputs, {OUT_FEATURES} outputs, "
            f"{NUM_PULSES} pulses, {crossbar.num_tiles} tiles",
            f"  ReferenceEngine : {reference_s * 1e3:8.2f} ms / MVM",
            f"  VectorizedEngine: {vectorized_s * 1e3:8.2f} ms / MVM",
            f"  speedup         : {speedup:8.1f}x  (required >= {MIN_SPEEDUP:.0f}x)",
            "  artifact        : benchmarks/results/BENCH_engine.json",
        ]
    )
    emit_report(capsys, results_dir, "engine_throughput", report)

    assert speedup >= MIN_SPEEDUP

    # Sanity: both engines produce the same noise statistics on this workload.
    ideal = encoder.represented_values(values) @ crossbar.assembled_effective_weights.T
    probe = np.repeat(values, 8, axis=0)
    probe_ideal = encoder.represented_values(probe) @ crossbar.assembled_effective_weights.T
    stds = {
        name: float(np.std(pulsed_mvm(crossbar, probe, encoder, engine=name) - probe_ideal))
        for name in ("reference", "vectorized")
    }
    assert stds["vectorized"] == pytest.approx(stds["reference"], rel=0.1)
