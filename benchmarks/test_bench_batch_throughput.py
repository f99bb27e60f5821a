"""Benchmark E9 — stacked multi-scenario evaluation vs sequential sessions.

Times a sigma sweep of the paper's fig1b shape — K = 8 noisy configs on the
shared fast-profile bundle — two ways:

* sequential: one :class:`~repro.sim.Session` and one
  :func:`~repro.training.evaluate.evaluate_accuracy` pass per config, each
  drawing from its own stream ``RandomState(seed_k)``;
* stacked: one :func:`~repro.training.evaluate.evaluate_multi` call with
  the same streams.  It runs the model stem once per batch and the first
  encoded layer's quantisation and ideal read once per distinct encoding,
  and every later layer once per scenario at the sequential batch size.

This is the path ``run_grid(batch=True)`` takes for stacked ``api_eval``
groups.  Every scenario's accuracy is asserted equal to its sequential run
in every sample (the bit-identity contract of :mod:`repro.sim.multi`).

Gate: the median of ``SAMPLES`` alternating (sequential, stacked) pairs
at a pinned 1-thread BLAS pool read back (``alternating_pairs``) must reach
``MIN_SPEEDUP``.  On that pool ``evaluate_multi`` runs its two lanes, as in
every worker process and in e2ebench.
``benchmarks/results/BENCH_batch.json`` records every sample, the ratios'
IQR and the runs the bar was set from.
"""

import numpy as np

from benchmarks.conftest import alternating_pairs, emit_report, usable_cpus, write_bench_artifact
from repro.sim import Session, SimConfig
from repro.tensor.dtype import compute_dtype_name
from repro.tensor.random import RandomState
from repro.training.evaluate import evaluate_accuracy, evaluate_multi

#: A sigma sweep of the paper's fig1b shape, K = 8 scenarios.
SIGMAS = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
SEEDS = tuple(1000 + index for index in range(len(SIGMAS)))
SAMPLES = 3
MIN_SPEEDUP = 1.1
#: Median-of-3 ratios of the standalone runs on the 2-CPU host that the bar
#: was set from (the same runs are in ``history.jsonl``), when the legs ran
#: on the unpinned pool in one lane.  The lowest, 1.11, ran beside other
#: work on the host.
BAR_EVIDENCE = {
    "host": "2 CPUs, one pytest process per run",
    "median_speedups_blas_unpinned": [
        1.37, 1.11, 1.26, 1.36, 1.32, 1.25, 1.32, 1.25, 1.31, 1.25,
    ],
}


def _configs():
    return [
        SimConfig(mode="noisy", noise_sigma=sigma, engine="vectorized")
        for sigma in SIGMAS
    ]


def _run_sequential(model, loader, sims):
    """K sequential sessions, scenario ``k`` on stream ``RandomState(seed_k)``."""
    # The shared bundle's layers keep a reference to the context stream;
    # restore it so later benchmarks keep reseeding through manual_seed.
    saved_rngs = [layer.noise_rng for layer in model.encoded_layers()]
    accuracies = []
    try:
        for sim, seed in zip(sims, SEEDS):
            with Session(model, sim):
                stream = RandomState(seed)
                for layer in model.encoded_layers():
                    layer.noise_rng = stream
                accuracies.append(evaluate_accuracy(model, loader))
    finally:
        for layer, rng in zip(model.encoded_layers(), saved_rngs):
            layer.noise_rng = rng
    return accuracies


def _run_stacked(model, loader, sims):
    stacked = evaluate_multi(
        model, loader, sims, rngs=[RandomState(seed) for seed in SEEDS]
    )
    return [scenario[0] for scenario in stacked]


def test_batched_multi_scenario_speedup(capsys, results_dir, bundle):
    model = bundle.model
    loader = bundle.test_loader
    sims = _configs()

    # Warm both paths (lazy level tables, first-touch allocations) on one
    # batch, so the first timed leg pays no one-time cost the other skips.
    first_batch = [next(iter(loader))]
    assert _run_stacked(model, first_batch, sims) == _run_sequential(
        model, first_batch, sims
    )

    accuracies = {"sequential": [], "stacked": []}
    pairs = alternating_pairs(
        lambda: accuracies["sequential"].append(_run_sequential(model, loader, sims)),
        lambda: accuracies["stacked"].append(_run_stacked(model, loader, sims)),
        SAMPLES,
    )
    runs = accuracies["sequential"] + accuracies["stacked"]
    assert all(run == runs[0] for run in runs), (
        "stacked evaluation must be bit-identical to sequential sessions"
    )
    speedup = pairs["speedup"]
    sequential_s = float(np.median(pairs["a_s_samples"]))
    stacked_s = float(np.median(pairs["b_s_samples"]))

    record = {
        "workload": {
            "path": "evaluate_multi vs K sequential Session + evaluate_accuracy",
            "profile": bundle.profile.name,
            "sigmas": list(SIGMAS),
            "num_scenarios": len(SIGMAS),
            "engine": "vectorized",
            "test_batches": len(loader),
            "compute_dtype": compute_dtype_name(),
            "legs": ["sequential", "stacked"],
        },
        "sequential_s": sequential_s,
        "stacked_s": stacked_s,
        **pairs,
        "bit_identical": True,
        "usable_cpus": usable_cpus(),
        "gated_on": "evaluate_multi",
        "bar_evidence": BAR_EVIDENCE,
        "min_required_speedup": MIN_SPEEDUP,
    }
    write_bench_artifact(results_dir, "batch", record)

    report = "\n".join(
        [
            "Stacked multi-scenario evaluation vs sequential sessions",
            f"  workload  : {bundle.profile.name} profile, K={len(SIGMAS)} sigmas "
            f"{SIGMAS[0]:g}..{SIGMAS[-1]:g}, {len(loader)} test batches "
            f"[{compute_dtype_name()}]",
            f"  sequential: {sequential_s:8.2f} s  (median of {SAMPLES})",
            f"  stacked   : {stacked_s:8.2f} s  (median of {SAMPLES}, evaluate_multi)",
            f"  speedup   : {speedup:8.2f}x  (median, IQR {pairs['speedup_iqr']:.2f}; "
            f"required >= {MIN_SPEEDUP:g}x)",
            "  bit-identical accuracies: True",
            "  artifact  : benchmarks/results/BENCH_batch.json",
        ]
    )
    emit_report(capsys, results_dir, "batch_throughput", report)

    assert speedup >= MIN_SPEEDUP
