"""Shared fixtures for the benchmark harness.

The benchmarks reproduce every table and figure of the paper at the ``fast``
profile scale (reduced-width VGG9 on the synthetic CIFAR-like task of
:mod:`repro.data`).  Pre-training is done once per profile and cached both in-process
and on disk (``.repro_cache/``), so the expensive stage is shared by all
benchmark files.

Every benchmark prints the reproduced rows next to the paper's reported
values (straight to the terminal, bypassing capture) and also writes them to
``benchmarks/results/`` so reports can cite stable artifacts.

Every gated throughput benchmark measures one way, with
:func:`alternating_pairs`: the median of N alternating pairs at a pinned
1-thread BLAS pool, read back.  It writes the result into its
``BENCH_*.json`` artifact with :func:`write_bench_artifact`, which also
appends the headline numbers to ``benchmarks/results/history.jsonl`` so the
perf history survives re-records.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from repro.experiments import get_profile, get_pretrained_bundle
from repro.utils.seed import seed_everything
from repro.worker_env import blas_pool_pinned

BENCHMARKS_DIR = os.path.dirname(os.path.abspath(__file__))
RESULTS_DIR = os.path.join(BENCHMARKS_DIR, "results")
REPO_ROOT = os.path.dirname(BENCHMARKS_DIR)
HISTORY_FILE = "history.jsonl"
#: Fields of :func:`alternating_pairs` copied into every history line.
HISTORY_FIELDS = ("blas_threads", "samples", "speedup_samples", "speedup", "speedup_iqr")
#: What :func:`_dirty` compares against the commit, relative to the repo root.
DIRTY_PATHSPECS = ("src", "tests", "benchmarks", ":(exclude)benchmarks/results")


def pytest_collection_modifyitems(config, items):
    """Mark every benchmark as ``slow`` so ``-m "not slow"`` skips the suite."""
    for item in items:
        if str(item.fspath).startswith(BENCHMARKS_DIR):
            item.add_marker(pytest.mark.slow)

#: Profile used by the benchmark harness (override with REPRO_PROFILE).
PROFILE_NAME = os.environ.get("REPRO_PROFILE", "fast")


@pytest.fixture(scope="session")
def profile():
    """The experiment profile all benchmarks run at."""
    return get_profile(PROFILE_NAME)


@pytest.fixture(scope="session")
def bundle(profile):
    """Shared pre-trained model + loaders (pre-trains once, cached on disk)."""
    seed_everything(profile.seed)
    return get_pretrained_bundle(profile)


def eval_suite(profile):
    """The eval-only scenarios of the paper grid (no GBO/NIA training):
    Table I's uniform rows at every noise level, Fig. 2's per-layer sweep
    and the A1 encoding ablation."""
    from repro.experiments.ablations import encoding_ablation_grid
    from repro.experiments.fig2 import fig2_grid
    from repro.experiments.runner import ScenarioGrid
    from repro.experiments.table1 import table1_grid

    return ScenarioGrid.concat(
        "fast_eval_suite",
        [
            table1_grid(profile, include_gbo=False),
            fig2_grid(profile),
            encoding_ablation_grid(profile),
        ],
    )


@dataclass(frozen=True)
class SuiteOracle:
    """One serial run of :func:`eval_suite` into a result store."""

    grid: object
    store_dir: str
    outcome: object
    seconds: float


@pytest.fixture(scope="session")
def eval_suite_oracle(bundle, tmp_path_factory) -> SuiteOracle:
    """The serial oracle of :func:`eval_suite`, run once per session.

    The runner (E8) and distributed (E9) benchmarks both compare their legs
    against it and read its store (resume legs, lease reclaim); neither
    writes into it.
    """
    from repro.experiments.runner import ResultStore, run_grid

    grid = eval_suite(bundle.profile)
    store_dir = str(tmp_path_factory.mktemp("eval_suite_oracle"))
    start = time.perf_counter()
    outcome = run_grid(grid, store=ResultStore(store_dir), bundle=bundle)
    seconds = time.perf_counter() - start
    assert outcome.executed == len(grid)
    return SuiteOracle(grid=grid, store_dir=store_dir, outcome=outcome, seconds=seconds)


@pytest.fixture(scope="session")
def results_dir():
    """Directory where benchmark reports are written."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


def emit_report(capsys, results_dir: str, name: str, text: str) -> None:
    """Print a reproduction report to the terminal and persist it to disk."""
    banner = f"\n{'=' * 72}\n{name}\n{'=' * 72}\n{text}\n"
    with capsys.disabled():
        print(banner)
    with open(os.path.join(results_dir, f"{name}.txt"), "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _commit(root: str = REPO_ROOT) -> str:
    """The checked-out commit, or ``"unknown"`` outside a git checkout."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return head.stdout.strip() or "unknown"


def _dirty(root: str = REPO_ROOT) -> bool:
    """Whether the code a run measures differs from :func:`_commit`.

    ``git status --porcelain`` over ``src/``, ``tests/`` and
    ``benchmarks/``, leaving out ``benchmarks/results/`` (which the runs
    themselves rewrite): any modified, staged or untracked file makes the
    run dirty.  Outside a git checkout no commit vouches for the code, so
    the run counts as dirty too.
    """
    try:
        status = subprocess.run(
            ["git", "status", "--porcelain", "--", *DIRTY_PATHSPECS],
            cwd=root, capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return True
    return bool(status.stdout.strip())


def alternating_pairs(
    leg_a: Callable[[], object], leg_b: Callable[[], object], samples: int
) -> dict:
    """Time ``samples`` alternating pairs of ``leg_a`` and ``leg_b``.

    The whole measurement runs with this process's BLAS pool pinned to one
    thread (:func:`repro.worker_env.blas_pool_pinned`), restored afterwards.
    Even pairs run ``leg_a`` first, odd pairs ``leg_b`` first, so a drift of
    the host's speed hits both legs alike.  Each leg is a call without
    arguments that must not depend on the other's output; its wall time is
    one sample.

    Returns the fields every gated artifact records: ``samples``, the
    per-leg seconds ``a_s_samples`` and ``b_s_samples``, the per-pair ratios
    ``speedup_samples`` (a / b), their median ``speedup``, ``speedup_iqr``
    (75th minus 25th percentile, linearly interpolated) and ``blas_threads``,
    the pool size read back inside the pin.
    """
    a_s, b_s = [], []
    with blas_pool_pinned(1) as threads:
        for pair in range(samples):
            legs = [(leg_a, a_s), (leg_b, b_s)]
            for leg, times in legs if pair % 2 == 0 else legs[::-1]:
                start = time.perf_counter()
                leg()
                times.append(time.perf_counter() - start)
    ratios = [a / b for a, b in zip(a_s, b_s)]
    low, high = np.percentile(ratios, [25, 75])
    return {
        "samples": samples,
        "a_s_samples": a_s,
        "b_s_samples": b_s,
        "speedup_samples": ratios,
        "speedup": float(np.median(ratios)),
        "speedup_iqr": float(high - low),
        "blas_threads": threads,
    }


def write_bench_artifact(results_dir: str, name: str, record: dict) -> None:
    """Write ``record`` to ``BENCH_<name>.json`` and append it to the history.

    ``record`` must carry the fields of :func:`alternating_pairs` and the
    gate ``min_required_speedup``.  The history line adds the commit,
    whether the measured code differs from it (``dirty``) and the usable CPU
    count of the run.
    """
    artifact = f"BENCH_{name}.json"
    with open(os.path.join(results_dir, artifact), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    entry = {
        "artifact": artifact,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "commit": _commit(),
        "dirty": _dirty(),
        "cpus": usable_cpus(),
        **{key: record[key] for key in HISTORY_FIELDS},
        "gate": record["min_required_speedup"],
    }
    with open(os.path.join(results_dir, HISTORY_FILE), "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry) + "\n")
