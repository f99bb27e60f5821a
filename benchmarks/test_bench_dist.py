"""Benchmark E9 — distributed workers: shared-store drain vs serial.

Runs the fast-profile evaluation suite (the same grid as benchmark E8)
several ways and the crash-recovery path once:

* serial oracle (fresh result store, in-process): the session's
  ``eval_suite_oracle`` (``benchmarks/conftest.py``), shared with E8,
* ``SAMPLES`` alternating pairs of a serial drain and a two-worker drain,
  each into a fresh store.  The serial leg is one ``python -m
  repro.distributed`` worker subprocess owning the whole suite; the
  distributed leg is two of them sharing one store directory, shard-affine
  (shard 0 / shard 1).  Every worker pins its BLAS pools to one thread
  through :mod:`repro.worker_env` and pays interpreter and bundle start-up,
  so the two legs differ only in the worker count.  Bit-identity of every
  store is asserted against the serial oracle,
* lease reclaim: a store one scenario short of complete plus an expired
  lease left by a "crashed" worker — a fresh worker must steal the
  orphaned claim and finish, at resume-like cost.

Gate: the median of the alternating pairs' ratios (serial / two workers),
at a pinned 1-thread BLAS pool read back in this process
(``alternating_pairs``), must clear >= 1.5x with >= 2 usable cores.  On a
single-core container, where two CPU-bound processes cannot beat one by
construction, the pairs are the in-process serial drain against the lease
reclaim instead, gated at the same bar.  ``benchmarks/results/BENCH_dist.json``
records every sample, the ratios' IQR, the core count and which path was
gated.
"""

import itertools
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np

from benchmarks.conftest import alternating_pairs, emit_report, usable_cpus, write_bench_artifact
from repro.distributed.lease import LeaseManager
from repro.distributed.worker import GridWorker
from repro.experiments.runner import ResultStore, run_grid

MIN_SPEEDUP = 1.5
NUM_WORKERS = 2
SAMPLES = 3

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


def _spawn_worker(specs_file, store_dir, shard_index, num_shards):
    # ``python -m repro.distributed`` pins its BLAS threads itself
    # (``repro.worker_env.pin_worker_threads``) before numpy loads.
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.distributed",
            "--specs", str(specs_file),
            "--store", str(store_dir),
            "--owner", f"bench-w{shard_index}",
            "--ttl", "120",
            "--poll", "0.2",
            "--shard-index", str(shard_index),
            "--num-shards", str(num_shards),
        ],
        env=env,
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _drain(specs_file, store_dir, num_workers):
    """``num_workers`` worker subprocesses drain the suite into ``store_dir``."""
    workers = [
        _spawn_worker(specs_file, store_dir, index, num_workers) for index in range(num_workers)
    ]
    outputs = [worker.communicate(timeout=1200)[0] for worker in workers]
    assert [worker.returncode for worker in workers] == [0] * num_workers, outputs


def _reclaim(complete_store_dir, reclaim_store_dir, grid):
    """Finish a clone of a complete store missing one result whose claim a
    "crashed" worker left behind; returns the drain report and the victim.

    A fresh worker must steal the claim and finish at resume-like cost
    (everything else is cached), never re-run the suite.
    """
    shutil.copytree(complete_store_dir, reclaim_store_dir)
    store = ResultStore(str(reclaim_store_dir))
    victim = min(grid, key=lambda spec: spec.hash)
    os.remove(store.result_path(victim))
    dead = LeaseManager(store.root, owner="crashed-worker", ttl=60.0)
    assert dead.acquire(victim.hash)
    stale = time.time() - 3600
    os.utime(dead.lease_path(victim.hash), (stale, stale))
    return GridWorker(grid, store).drain(), victim


def test_distributed_drain_and_reclaim(
    bundle, eval_suite_oracle, capsys, results_dir, tmp_path
):
    profile = bundle.profile
    grid = eval_suite_oracle.grid
    assert len(grid) >= 20, "the eval suite should be a real grid, not a toy"

    oracle_dir = eval_suite_oracle.store_dir
    serial = eval_suite_oracle.outcome
    oracle_s = eval_suite_oracle.seconds

    # ---- crash recovery: reclaim an orphaned claim ----------------------
    start = time.perf_counter()
    reclaim_report, victim = _reclaim(oracle_dir, tmp_path / "reclaim_store", grid)
    reclaim_s = time.perf_counter() - start
    assert reclaim_report.reclaimed == [victim.hash]
    assert reclaim_report.executed == [victim.hash]
    assert reclaim_report.cached == len(grid) - 1

    # ---- the gated pairs, each leg into a fresh store --------------------
    fresh = (tmp_path / f"store_{index}" for index in itertools.count())
    cpus = usable_cpus()
    if cpus >= NUM_WORKERS:
        gated_on = "two_workers"
        specs_file = tmp_path / "suite.json"
        specs_file.write_text(json.dumps([spec.as_dict() for spec in grid]))
        pairs = alternating_pairs(
            lambda: _drain(specs_file, next(fresh), 1),
            lambda: _drain(specs_file, next(fresh), NUM_WORKERS),
            SAMPLES,
        )
    else:
        # Two CPU-bound worker processes need two cores to beat one serial
        # process; on one, recovering a crashed worker's scenario must cost
        # a single scenario, not a suite.
        gated_on = "reclaim"
        pairs = alternating_pairs(
            lambda: run_grid(grid, store=ResultStore(str(next(fresh))), bundle=bundle),
            lambda: _reclaim(oracle_dir, next(fresh), grid),
            SAMPLES,
        )
    stores = [tmp_path / "reclaim_store", *tmp_path.glob("store_*")]
    bit_identical = all(
        ResultStore(str(store)).get(spec) == serial.results[spec.hash]
        for store in stores
        for spec in grid
    )
    assert bit_identical, "worker results must be bit-identical to the serial oracle"

    serial_s = float(np.median(pairs["a_s_samples"]))
    dist_s = float(np.median(pairs["b_s_samples"]))
    speedup = pairs["speedup"]
    # Even ungated, the two-worker path must stay sane: the slack term
    # absorbs two interpreter/bundle-load startups on tiny suites.
    dist_ceiling_s = 3.0 * serial_s + 30.0
    assert dist_s <= dist_ceiling_s, (
        f"two-worker drain took {dist_s:.1f}s vs serial {serial_s:.1f}s — "
        f"distributed overhead is pathological"
    )

    record = {
        "workload": {
            "grid": grid.name,
            "num_scenarios": len(grid),
            "profile": profile.name,
            "experiments": list(grid.experiments()),
            "num_workers": NUM_WORKERS,
            "workers_include_interpreter_startup": True,
            "legs": ["serial", gated_on],
        },
        "oracle_s": oracle_s,
        "serial_s": serial_s,
        "dist_s": dist_s,
        "reclaim_s": reclaim_s,
        **pairs,
        "usable_cpus": cpus,
        "bit_identical": bit_identical,
        "dist_ceiling_s": dist_ceiling_s,
        "gated_on": gated_on,
        "min_required_speedup": MIN_SPEEDUP,
    }
    write_bench_artifact(results_dir, "dist", record)

    report = "\n".join(
        [
            "Distributed workers, fast-profile evaluation suite",
            f"  grid            : {len(grid)} scenarios "
            f"({', '.join(grid.experiments())})",
            f"  serial oracle   : {oracle_s:8.2f} s  (in-process)",
            f"  serial leg      : {serial_s:8.2f} s  (median of {SAMPLES})",
            f"  {gated_on:<16}: {dist_s:8.2f} s  (median of {SAMPLES}, "
            f"{cpus} usable cpu(s), incl. startup)",
            f"  lease reclaim   : {reclaim_s:8.2f} s",
            f"  bit-identical   : {bit_identical}",
            f"  gate            : {gated_on} >= {MIN_SPEEDUP:.1f}x -> {speedup:.2f}x "
            f"(median of {SAMPLES} pairs, IQR {pairs['speedup_iqr']:.2f})",
            "  artifact        : benchmarks/results/BENCH_dist.json",
        ]
    )
    emit_report(capsys, results_dir, "dist_throughput", report)

    assert speedup >= MIN_SPEEDUP
