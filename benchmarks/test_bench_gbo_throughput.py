"""Benchmark E8 — GBO training-step throughput on a paper-shaped VGG9.

Times a full GBO optimisation step (forward with the Eq. 5 candidate
mixture, backward to the logits, Adam update) on a VGG9 network for both
simulation engines.  The reference engine executes one ideal crossbar read
per candidate encoding in Omega (|Omega| = 7) per encoded layer per step;
the vectorized engine folds the whole candidate space into a single read
plus one Gaussian draw (the mixture of |Omega| independent normals is itself
one normal), so the GBO stage — the most expensive part of the Table I /
Table II drivers — runs several times faster.

The workload is the fast profile widened towards the paper's network: the
paper's 32x32 image size at quarter width.  The fast profile's own 16x16 /
0.125-width network has 3x3 kernels over only 2-8 channels, so its candidate
reads are a few hundred FLOPs per output element — there the step time is
dominated by costs both engines share (batch-norm/activation/backward
passes), which understates what the fold buys on any realistically-sized
network.  At 32x32 / 0.25 width the per-candidate
read is the dominant term, as it is on the paper's full-width VGG9, while a
reference run still completes in seconds.

The vectorized engine is additionally timed under the float32 compute
policy (``repro.tensor.dtype``) — the raw-speed configuration this whole
fold exists for: the candidate fold plus single-precision arithmetic.
The reference engine stays at float64 so the denominator remains the
literal paper-faithful oracle; the
float64 vectorized time is also recorded so the artifact separates what
single precision buys from what the fold buys.

The acceptance bar is a >= 5x step-throughput speedup; the measured numbers
are persisted to ``benchmarks/results/BENCH_gbo.json`` alongside the pulsed
MVM tracking in ``BENCH_engine.json``.  Timing is best-of-``REPEATS`` full
training runs per engine (the GBO analogue of BENCH_engine's "best of 5";
each repeat here is a seconds-long measurement, so three repeats give a
stable floor) so a single noisy run on a loaded machine cannot fail the
gate or ship a misleading artifact.
"""

import contextlib
import time

import pytest

from benchmarks.conftest import emit_report, write_bench_artifact
from repro.core.gbo import GBOConfig, GBOTrainer
from repro.core.search_space import PulseScalingSpace
from repro.data import DataLoader, SyntheticImageConfig, SyntheticImageDataset
from repro.experiments.common import build_model
from repro.experiments.profiles import get_profile
from repro.sim import SimConfig, apply_config
from repro.tensor import compute_dtype_scope
from repro.tensor.random import RandomState
from repro.utils.seed import seed_everything

#: Number of GBO optimisation steps timed per engine (1 epoch x NUM_BATCHES).
NUM_BATCHES = 2
BATCH_SIZE = 64
REPEATS = 3
MIN_SPEEDUP = 5.0
#: Paper-shaped workload: the paper's 32x32 images at quarter network width.
IMAGE_SIZE = 32
WIDTH_MULTIPLIER = 0.25


def _gbo_loader(profile):
    dataset = SyntheticImageDataset(
        NUM_BATCHES * BATCH_SIZE,
        config=SyntheticImageConfig(
            num_classes=profile.num_classes, image_size=profile.image_size
        ),
        seed=profile.seed,
    )
    return DataLoader(dataset, batch_size=BATCH_SIZE, shuffle=True, rng=RandomState(1))


def _run_gbo_once(profile, engine_name, dtype=None) -> float:
    """Wall-clock seconds for ``NUM_BATCHES`` GBO steps on a fresh model.

    ``dtype`` scopes the process compute-dtype policy around the whole run
    (model build included), so every array the step touches is materialised
    at that precision; ``None`` keeps the float64 default.
    """
    scope = compute_dtype_scope(dtype) if dtype is not None else contextlib.nullcontext()
    with scope:
        seed_everything(profile.seed)
        model = build_model(profile)
        apply_config(
            model,
            SimConfig(
                noise_sigma=profile.sigmas[0],
                sigma_relative_to_fan_in=profile.noise_relative_to_fan_in,
            ),
        )
        loader = _gbo_loader(profile)
        trainer = GBOTrainer(
            model,
            GBOConfig(
                space=PulseScalingSpace(base_pulses=profile.base_pulses),
                gamma=profile.gamma_short,
                learning_rate=profile.gbo_lr,
                epochs=1,
            ),
            sim=SimConfig(engine=engine_name),
        )
        start = time.perf_counter()
        result = trainer.train(loader)
        elapsed = time.perf_counter() - start
    assert len(result.history) == NUM_BATCHES
    return elapsed


def _time_gbo_steps(profile, engine_name, dtype=None) -> float:
    """Best-of-``REPEATS`` wall-clock seconds for ``NUM_BATCHES`` GBO steps."""
    return min(_run_gbo_once(profile, engine_name, dtype) for _ in range(REPEATS))


def test_gbo_step_throughput_speedup(capsys, results_dir):
    profile = get_profile("fast").with_overrides(
        image_size=IMAGE_SIZE, width_multiplier=WIDTH_MULTIPLIER
    )
    assert profile.model == "vgg9"

    reference_s = _time_gbo_steps(profile, "reference")
    vectorized_f64_s = _time_gbo_steps(profile, "vectorized")
    vectorized_s = _time_gbo_steps(profile, "vectorized", dtype="float32")
    reference_sps = NUM_BATCHES / reference_s
    vectorized_sps = NUM_BATCHES / vectorized_s
    speedup = reference_s / vectorized_s

    record = {
        "workload": {
            "profile": profile.name,
            "model": profile.model,
            "image_size": profile.image_size,
            "width_multiplier": profile.width_multiplier,
            "batch_size": BATCH_SIZE,
            "steps": NUM_BATCHES,
            "num_candidates": PulseScalingSpace(base_pulses=profile.base_pulses).num_options,
            "sigma": profile.sigmas[0],
            # Compute dtype of the gated (vectorized) runs; the reference
            # oracle is always timed at float64.
            "compute_dtype": "float32",
            "reference_compute_dtype": "float64",
        },
        "reference_steps_per_sec": reference_sps,
        "vectorized_steps_per_sec": vectorized_sps,
        "reference_s_per_step": reference_s / NUM_BATCHES,
        "vectorized_s_per_step": vectorized_s / NUM_BATCHES,
        "vectorized_float64_s_per_step": vectorized_f64_s / NUM_BATCHES,
        "speedup": speedup,
        "speedup_float64": reference_s / vectorized_f64_s,
        "min_required_speedup": MIN_SPEEDUP,
        "timing": f"best of {REPEATS}",
    }
    write_bench_artifact(results_dir, "gbo", record)

    report = "\n".join(
        [
            f"GBO training-step throughput, VGG9 at {IMAGE_SIZE}x{IMAGE_SIZE} / "
            f"width {WIDTH_MULTIPLIER}",
            f"  workload: {BATCH_SIZE}-sample batches, {record['workload']['num_candidates']} "
            f"candidate encodings, 7 encoded layers",
            f"  ReferenceEngine (float64) : {reference_sps:8.3f} steps/s "
            f"({reference_s / NUM_BATCHES * 1e3:8.1f} ms / step)",
            f"  VectorizedEngine (float64): {NUM_BATCHES / vectorized_f64_s:8.3f} steps/s "
            f"({vectorized_f64_s / NUM_BATCHES * 1e3:8.1f} ms / step)",
            f"  VectorizedEngine (float32): {vectorized_sps:8.3f} steps/s "
            f"({vectorized_s / NUM_BATCHES * 1e3:8.1f} ms / step)",
            f"  speedup         : {speedup:8.1f}x  (required >= {MIN_SPEEDUP:.0f}x, "
            f"best of {REPEATS}, float32 vectorized vs float64 reference)",
            "  artifact        : benchmarks/results/BENCH_gbo.json",
        ]
    )
    emit_report(capsys, results_dir, "gbo_throughput", report)

    assert speedup >= MIN_SPEEDUP
