"""Shared fixtures for the benchmark harness.

The benchmarks reproduce every table and figure of the paper at the ``fast``
profile scale (reduced-width VGG9 on the synthetic CIFAR-like task of
:mod:`repro.data`).  Pre-training is done once per profile and cached both in-process
and on disk (``.repro_cache/``), so the expensive stage is shared by all
benchmark files.

Every benchmark prints the reproduced rows next to the paper's reported
values (straight to the terminal, bypassing capture) and also writes them to
``benchmarks/results/`` so reports can cite stable artifacts.
The gated throughput benchmarks write their ``BENCH_*.json`` artifact with
:func:`write_bench_artifact`, which also appends the headline numbers to
``benchmarks/results/history.jsonl`` so the perf history survives
re-records.
"""

from __future__ import annotations

import json
import os
import subprocess
import time

import pytest

from repro.experiments import get_profile, get_pretrained_bundle
from repro.utils.seed import seed_everything
from repro.worker_env import WORKER_THREAD_ENV

BENCHMARKS_DIR = os.path.dirname(os.path.abspath(__file__))
RESULTS_DIR = os.path.join(BENCHMARKS_DIR, "results")
REPO_ROOT = os.path.dirname(BENCHMARKS_DIR)
HISTORY_FILE = "history.jsonl"
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


def write_bench_artifact(results_dir: str, name: str, record: dict) -> None:
    """Write ``record`` to ``BENCH_<name>.json`` and append it to the history.

    ``record`` must carry the gated ``speedup`` and its
    ``min_required_speedup``.  The history line adds the commit, whether the
    measured code differs from it (``dirty``), and the usable CPU count and
    BLAS thread variables of the run.
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
        "blas_threads": {var: os.environ.get(var) for var in WORKER_THREAD_ENV},
        "speedup": record["speedup"],
        "gate": record["min_required_speedup"],
    }
    with open(os.path.join(results_dir, HISTORY_FILE), "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry) + "\n")
