#!/usr/bin/env python
"""Profile the hot paths: one GBO training step, one stacked noisy
evaluation and one pulsed MVM.

Runs each workload under :mod:`cProfile` and prints the top-N functions by
cumulative time, so a perf regression (or the next optimisation target) can
be located in one command instead of by bisecting benchmarks.  Every thread
the workload starts is profiled too, and printed under its own name: GBO
training prepares each step on its ``gbo-prepare`` helper, and stacked
evaluation runs the second half of its scenarios on its ``eval-lane``
helper, and the calling thread's profile shows only its wait for them.
The workloads mirror the gated benchmarks at a reduced size:

* **GBO step** — one optimisation step (candidate-folded forward, backward
  to the logits, Adam update) of the fast-profile VGG9 on a 32-sample
  batch, vectorized engine;
* **stacked evaluation** — one ``evaluate_multi`` over a K = 8 sigma sweep
  on the fast-profile bundle's test set, vectorized engine (the
  ``BENCH_batch.json`` workload): the calling thread runs the stem, the
  first layer's reads and scenarios 0–3, the ``eval-lane`` thread
  scenarios 4–7;
* **pulsed MVM** — one thermometer-encoded MVM on a VGG9-conv-block-shaped
  256 x 1152 tiled crossbar with a 64-sample batch.

Usage::

    PYTHONPATH=src python benchmarks/profile_hotpath.py [--top N]
        [--dtype {float64,float32}] [--workload {gbo,eval,mvm,all}]

The ``--dtype`` flag scopes the process compute-dtype policy around the
workloads — comparing ``float64`` and ``float32`` profiles shows where
single precision actually buys its time.  BLAS is pinned to one thread
before numpy loads, as in the worker processes and the end-to-end
benchmark: stacked evaluation runs its ``eval-lane`` only then.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import pstats
import sys
import threading
from typing import Iterator, List, Tuple

from repro.worker_env import pin_worker_threads

pin_worker_threads()  # before numpy loads BLAS

import numpy as np  # noqa: E402

TOP_DEFAULT = 25

GBO_BATCH = 32

#: The stacked-evaluation leg's sigma sweep (K = 8), as ``BENCH_batch.json``.
EVAL_SIGMAS = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)


@contextlib.contextmanager
def _profiling_new_threads() -> Iterator[List[Tuple[str, cProfile.Profile]]]:
    """Profile every thread started in the block; yields ``(name, profile)``s.

    A thread's profile covers its whole ``run``; read the list after the
    threads have ended (the workloads join theirs before returning).
    """
    profiles: List[Tuple[str, cProfile.Profile]] = []
    run = threading.Thread.run

    def profiled_run(thread: threading.Thread) -> None:
        profiler = cProfile.Profile()
        profiles.append((thread.name, profiler))
        profiler.enable()
        try:
            run(thread)
        finally:
            profiler.disable()

    threading.Thread.run = profiled_run
    try:
        yield profiles
    finally:
        threading.Thread.run = run


def _profile(label: str, func, top: int) -> None:
    print(f"\n{'=' * 72}\n{label}\n{'=' * 72}")
    profiler = cProfile.Profile()
    with _profiling_new_threads() as started:
        profiler.enable()
        func()
        profiler.disable()
    for name, thread_profile in [("calling thread", profiler), *started]:
        print(f"\n--- thread: {name} ---")
        stats = pstats.Stats(thread_profile, stream=sys.stdout)
        stats.strip_dirs().sort_stats("cumulative").print_stats(top)


def _gbo_step():
    """One GBO optimisation step on the fast-profile VGG9."""
    from repro.core.gbo import GBOConfig, GBOTrainer
    from repro.core.search_space import PulseScalingSpace
    from repro.data import DataLoader, SyntheticImageConfig, SyntheticImageDataset
    from repro.experiments.common import build_model
    from repro.experiments.profiles import get_profile
    from repro.sim import SimConfig, apply_config
    from repro.tensor.random import RandomState
    from repro.utils.seed import seed_everything

    profile = get_profile("fast")
    seed_everything(profile.seed)
    model = build_model(profile)
    apply_config(
        model,
        SimConfig(
            noise_sigma=profile.sigmas[0],
            sigma_relative_to_fan_in=profile.noise_relative_to_fan_in,
        ),
    )
    dataset = SyntheticImageDataset(
        GBO_BATCH,
        config=SyntheticImageConfig(
            num_classes=profile.num_classes, image_size=profile.image_size
        ),
        seed=profile.seed,
    )
    loader = DataLoader(dataset, batch_size=GBO_BATCH, shuffle=False)
    trainer = GBOTrainer(
        model,
        GBOConfig(
            space=PulseScalingSpace(base_pulses=profile.base_pulses),
            gamma=profile.gamma_short,
            learning_rate=profile.gbo_lr,
            epochs=1,
        ),
        sim=SimConfig(engine="vectorized"),
    )

    def run():
        result = trainer.train(loader)
        assert len(result.history) == 1

    return run


def _stacked_eval():
    """One ``evaluate_multi`` over a K = 8 sigma sweep on the fast bundle."""
    from repro.experiments.common import get_pretrained_bundle
    from repro.experiments.profiles import get_profile
    from repro.sim import SimConfig
    from repro.tensor.random import RandomState
    from repro.training.evaluate import evaluate_multi
    from repro.utils.seed import seed_everything

    profile = get_profile("fast")
    seed_everything(profile.seed)
    bundle = get_pretrained_bundle(profile)
    sims = [
        SimConfig(mode="noisy", noise_sigma=sigma, engine="vectorized")
        for sigma in EVAL_SIGMAS
    ]

    def evaluate(loader):
        rngs = [RandomState(1000 + index) for index in range(len(sims))]
        return evaluate_multi(bundle.model, loader, sims, rngs=rngs)

    evaluate([next(iter(bundle.test_loader))])  # warm-up outside the profile

    def run():
        evaluate(bundle.test_loader)

    return run


def _pulsed_mvm():
    """One pulsed MVM on a VGG9-conv-block-shaped tiled crossbar."""
    from repro.backend import get_engine
    from repro.crossbar import (
        CrossbarConfig,
        GaussianReadNoise,
        ThermometerEncoder,
        TiledCrossbar,
        pulsed_mvm,
    )
    from repro.tensor.random import RandomState

    rng = RandomState(0)
    weights = np.where(rng.uniform(size=(256, 1152)) < 0.5, -1.0, 1.0)
    crossbar = TiledCrossbar(
        weights,
        config=CrossbarConfig(noise=GaussianReadNoise(1.0), max_rows=128, max_cols=128),
        rng=RandomState(1),
    )
    values = rng.choice(np.linspace(-1, 1, 9), size=(64, 1152))
    encoder = ThermometerEncoder(8)
    engine = get_engine("vectorized")
    pulsed_mvm(crossbar, values, encoder, engine=engine)  # warm-up outside the profile

    def run():
        pulsed_mvm(crossbar, values, encoder, engine=engine)

    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--top", type=int, default=TOP_DEFAULT, help="rows of stats to print")
    parser.add_argument(
        "--dtype",
        choices=("float64", "float32"),
        default="float64",
        help="compute-dtype policy scoped around the workloads",
    )
    parser.add_argument(
        "--workload",
        choices=("gbo", "eval", "mvm", "all"),
        default="all",
        help="what to profile",
    )
    options = parser.parse_args(argv)

    from repro.tensor import compute_dtype_scope

    scope = (
        compute_dtype_scope(options.dtype)
        if options.dtype != "float64"
        else contextlib.nullcontext()
    )
    with scope:
        if options.workload in ("gbo", "all"):
            _profile(
                f"one GBO step (fast-profile VGG9, batch {GBO_BATCH}, "
                f"vectorized, {options.dtype})",
                _gbo_step(),
                options.top,
            )
        if options.workload in ("eval", "all"):
            _profile(
                f"one stacked noisy evaluation (fast-profile bundle, K = "
                f"{len(EVAL_SIGMAS)} sigmas, vectorized, {options.dtype})",
                _stacked_eval(),
                options.top,
            )
        if options.workload in ("mvm", "all"):
            _profile(
                f"one pulsed MVM (256x1152, 18 tiles, batch 64, 8 pulses, "
                f"vectorized, {options.dtype})",
                _pulsed_mvm(),
                options.top,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
