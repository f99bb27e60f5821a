"""Benchmark E9 — batched multi-scenario read on a VGG9-block pulsed MVM.

Times K = 8 compatible scenarios (a sigma-sweep shape: same weights, same
thermometer encoder, per-scenario noise streams) evaluated sequentially —
one ``encoded_read`` per scenario — against one ``read_multi`` call on the
same workload as ``BENCH_engine.json``: a 256 x 1152 binary matrix over 18
physical 128x128 tiles and a batch of 64 im2col columns.

The fold: all K scenarios share one ideal-matmul (the dominant cost) and
differ only in their analytic noise draw, so the stacked pass does 1 matmul
+ K draws instead of K matmuls + K draws.  Because the shared matmul is the
*same call at the same operand shapes* as the sequential one, the batched
results are bit-identical per scenario (asserted below), not just
statistically equivalent.

Gate: >= 3x for the vectorized engine.  A mixed-pulse-count variant (3
distinct encodings among K = 8, so only partial folding is possible) and a
model-level ``evaluate_multi`` phase are recorded ungated for trajectory
tracking.  Results land in ``benchmarks/results/BENCH_batch.json``.
"""

import time

import numpy as np

from benchmarks.conftest import emit_report, write_bench_artifact
from repro.backend import get_engine
from repro.crossbar import (
    CrossbarConfig,
    GaussianReadNoise,
    ThermometerEncoder,
    TiledCrossbar,
)
from repro.sim import Session, SimConfig
from repro.tensor.dtype import compute_dtype_name
from repro.tensor.random import RandomState
from repro.training.evaluate import evaluate_accuracy, evaluate_multi

#: Same VGG9 conv block as BENCH_engine: 128 -> 256 channels, 3x3 kernel.
OUT_FEATURES = 256
IN_FEATURES = 1152
BATCH = 64
NUM_PULSES = 8
SIGMA = 1.0
NUM_SCENARIOS = 8
REPEATS = 7
MIN_SPEEDUP = 3.0

#: Model-level phase: a sigma sweep of the paper's fig1b shape.
MODEL_SIGMAS = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)


def _build_workload():
    rng = RandomState(0)
    weights = np.where(rng.uniform(size=(OUT_FEATURES, IN_FEATURES)) < 0.5, -1.0, 1.0)
    crossbar = TiledCrossbar(
        weights,
        config=CrossbarConfig(noise=GaussianReadNoise(SIGMA), max_rows=128, max_cols=128),
        rng=RandomState(1),
    )
    values = rng.choice(np.linspace(-1, 1, 9), size=(BATCH, IN_FEATURES))
    return crossbar, values


def _time_phase(engine, crossbar, values, encoders):
    """Best-of-``REPEATS`` (sequential_s, batched_s), plus bit-identity."""
    seeds = list(range(100, 100 + len(encoders)))

    def run_sequential():
        return np.stack(
            [
                engine.encoded_read(crossbar, values, encoder, rng=RandomState(seed))
                for encoder, seed in zip(encoders, seeds)
            ]
        )

    def run_batched():
        return engine.read_multi(
            crossbar, values, encoders, rngs=[RandomState(seed) for seed in seeds]
        )

    np.testing.assert_array_equal(run_batched(), run_sequential())  # + warm-up

    sequential_s = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        run_sequential()
        sequential_s = min(sequential_s, time.perf_counter() - start)
    batched_s = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        run_batched()
        batched_s = min(batched_s, time.perf_counter() - start)
    return sequential_s, batched_s


def _model_level_phase(bundle):
    """One ``evaluate_multi`` sweep vs K sequential sessions."""
    model = bundle.model
    loader = bundle.test_loader
    sims = [
        SimConfig(mode="noisy", noise_sigma=sigma, engine="vectorized")
        for sigma in MODEL_SIGMAS
    ]
    seeds = [1000 + index for index in range(len(sims))]

    # The sequential arm pins per-scenario streams onto the layers; the
    # bundle (and its layer -> context-default-rng references) is shared
    # session-wide, so restore them or later benchmarks lose per-scenario
    # reseeding through manual_seed.
    saved_rngs = [layer.noise_rng for layer in model.encoded_layers()]
    start = time.perf_counter()
    sequential = []
    try:
        for sim, seed in zip(sims, seeds):
            with Session(model, sim):
                stream = RandomState(seed)
                for layer in model.encoded_layers():
                    layer.noise_rng = stream
                sequential.append(evaluate_accuracy(model, loader))
    finally:
        for layer, rng in zip(model.encoded_layers(), saved_rngs):
            layer.noise_rng = rng
    sequential_s = time.perf_counter() - start

    start = time.perf_counter()
    batched = evaluate_multi(
        model, loader, sims, rngs=[RandomState(seed) for seed in seeds]
    )
    batched_s = time.perf_counter() - start

    assert [scenario[0] for scenario in batched] == sequential
    return sequential_s, batched_s


def test_batched_multi_scenario_speedup(capsys, results_dir, bundle):
    crossbar, values = _build_workload()
    assert crossbar.num_tiles == 18
    engine = get_engine("vectorized")

    # Gated phase: K scenarios sharing one encoding (sigma-sweep shape).
    shared = [ThermometerEncoder(NUM_PULSES) for _ in range(NUM_SCENARIOS)]
    sequential_s, batched_s = _time_phase(engine, crossbar, values, shared)
    speedup = sequential_s / batched_s

    # Ungated phase: 3 distinct pulse counts among K = 8 (partial folding).
    mixed = [ThermometerEncoder(p) for p in (8, 4, 16, 8, 4, 16, 8, 4)]
    mixed_sequential_s, mixed_batched_s = _time_phase(engine, crossbar, values, mixed)

    # Ungated phase: the reference oracle loops scenarios by contract.
    ref_sequential_s, ref_batched_s = _time_phase(
        get_engine("reference"), crossbar, values, shared
    )

    # Ungated phase: model-level evaluate_multi on the shared bundle.
    model_sequential_s, model_batched_s = _model_level_phase(bundle)

    record = {
        "workload": {
            "out_features": OUT_FEATURES,
            "in_features": IN_FEATURES,
            "batch": BATCH,
            "num_pulses": NUM_PULSES,
            "sigma": SIGMA,
            "num_tiles": crossbar.num_tiles,
            "num_scenarios": NUM_SCENARIOS,
            "encoder": "thermometer",
            "compute_dtype": compute_dtype_name(),
        },
        "sequential_ms": sequential_s * 1e3,
        "batched_ms": batched_s * 1e3,
        "speedup": speedup,
        "min_required_speedup": MIN_SPEEDUP,
        "mixed_pulse_counts": {
            "pulse_counts": [8, 4, 16, 8, 4, 16, 8, 4],
            "sequential_ms": mixed_sequential_s * 1e3,
            "batched_ms": mixed_batched_s * 1e3,
            "speedup": mixed_sequential_s / mixed_batched_s,
        },
        "reference_engine": {
            "sequential_ms": ref_sequential_s * 1e3,
            "batched_ms": ref_batched_s * 1e3,
            "speedup": ref_sequential_s / ref_batched_s,
        },
        "model_level": {
            "sigmas": list(MODEL_SIGMAS),
            "sequential_s": model_sequential_s,
            "batched_s": model_batched_s,
            "speedup": model_sequential_s / model_batched_s,
        },
        "timing": f"best of {REPEATS} (model level: single run)",
    }
    write_bench_artifact(results_dir, "batch", record)

    report = "\n".join(
        [
            "Batched multi-scenario read, VGG9-block pulsed MVM",
            f"  workload: {BATCH} x {IN_FEATURES} inputs, {OUT_FEATURES} outputs, "
            f"{NUM_PULSES} pulses, {crossbar.num_tiles} tiles, "
            f"K={NUM_SCENARIOS} scenarios [{compute_dtype_name()}]",
            f"  sequential (K reads): {sequential_s * 1e3:8.2f} ms",
            f"  batched (read_multi): {batched_s * 1e3:8.2f} ms",
            f"  speedup             : {speedup:8.1f}x  (required >= {MIN_SPEEDUP:.0f}x)",
            f"  mixed pulse counts  : {mixed_sequential_s / mixed_batched_s:8.1f}x (ungated)",
            f"  reference oracle    : {ref_sequential_s / ref_batched_s:8.1f}x (ungated)",
            f"  model evaluate_multi: {model_sequential_s / model_batched_s:8.1f}x (ungated)",
            "  artifact            : benchmarks/results/BENCH_batch.json",
        ]
    )
    emit_report(capsys, results_dir, "batch_throughput", report)

    assert speedup >= MIN_SPEEDUP
