"""Benchmark E9 — serving latency: parallel-distinct, coalesced, cached.

Drives a **live** ``python -m repro.serve`` subprocess (the real deployment
shape: spawned CLI, ephemeral port, JSON-lines TCP) with ``--workers 2``
against the fast profile and measures the request classes the server
exists for:

* **parallel-distinct** — two *different* configs submitted concurrently:
  with per-process execution contexts there is no global execution lock,
  so they run ``min(K, workers)``-wide.  Measured against the same pair
  executed serially (fresh sigmas every time, so neither leg can cheat via
  the result store);
* **coalesced** — K concurrent *identical* requests while the evaluation
  is in flight: exactly ONE simulation runs (the server's coalescing
  counter proves it), the other K-1 share its result;
* **cache-hit** — a request whose result the content-addressed store holds
  (``run_grid`` put it there before the server started) and the server's
  request table does not: answered from the store without touching any
  model, against one executed request of a fresh config.

Every timed phase is a set of ``SAMPLES`` alternating pairs at a pinned
1-thread BLAS pool read back in this process (``alternating_pairs``); the
server's worker processes pin their own pools.  With >= 2 usable CPUs the
gate rides the median parallel-distinct speedup (>= 1.4x); on a single-core
host true parallelism cannot beat serial, so the gate falls back to the
cache-hit pairs, which are plain-asserted at >= ``MIN_CACHE_SPEEDUP`` on
every host.  ``benchmarks/results/BENCH_serve.json`` records both sets of
pairs, the coalescing evidence, per-worker execution counts and the compute
dtype.
"""

import itertools
import json
import os
import shutil
import socket
import subprocess
import sys
import threading
import time

import numpy as np

from benchmarks.conftest import alternating_pairs, emit_report, usable_cpus, write_bench_artifact
from repro.experiments.common import prepare_checkpoint
from repro.experiments.runner import ResultStore, ScenarioGrid, run_grid
from repro.serve import EvalRequest

MIN_CACHE_SPEEDUP = 50.0
MIN_PARALLEL_SPEEDUP = 1.4
SERVE_WORKERS = 2
COALESCE_CLIENTS = 4
SAMPLES = 3
SIGMA_COALESCE = 10.0
#: Sigmas whose results the store holds before the server starts.
SIGMAS_STORED = tuple(40.0 + index for index in range(SAMPLES))


def _rpc(address, message, timeout=600.0):
    with socket.create_connection(address, timeout=timeout) as sock:
        stream = sock.makefile("rw", encoding="utf-8")
        stream.write(json.dumps(message) + "\n")
        stream.flush()
        return json.loads(stream.readline())


def _eval_payload(profile_name, sigma):
    return {
        "op": "submit",
        "profile": profile_name,
        "sim": {"mode": "noisy", "noise_sigma": sigma},
        "num_repeats": 1,
    }


def _submit_concurrently(address, payloads):
    """Submit all payloads at once; returns the responses."""
    responses = []
    lock = threading.Lock()

    def client(payload):
        response = _rpc(address, payload)
        with lock:
            responses.append(response)

    threads = [threading.Thread(target=client, args=(p,)) for p in payloads]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return responses


def _counters(address):
    return _rpc(address, {"op": "stats"})["stats"]["counters"]


def test_serve_latency_parallel_coalesced_cached(bundle, capsys, results_dir, tmp_path):
    profile = bundle.profile

    # Seed a private cache dir with the pre-trained checkpoint (the server
    # loads the model itself but never re-pretrains) and with the results of
    # SIGMAS_STORED only, for the cache-hit leg to read.
    cache_dir = tmp_path / "serve_cache"
    cache_dir.mkdir()
    shutil.copy(prepare_checkpoint(profile), cache_dir)
    stored = [
        EvalRequest.from_payload(_eval_payload(profile.name, sigma)).spec
        for sigma in SIGMAS_STORED
    ]
    run_grid(
        ScenarioGrid(name="serve_stored", specs=tuple(stored)),
        store=ResultStore(str(cache_dir / "runner")),
        bundle=bundle,
    )

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0",
         "--cache-dir", str(cache_dir), "--max-models", "2",
         "--workers", str(SERVE_WORKERS)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        announce = proc.stdout.readline().strip()
        assert announce.startswith("serving on "), f"bad announce line: {announce!r}"
        host, port = announce.split()[-1].rsplit(":", 1)
        address = (host, int(port))
        fresh_sigmas = itertools.count(20.0)

        def execute(count):
            payloads = [_eval_payload(profile.name, next(fresh_sigmas)) for _ in range(count)]
            responses = _submit_concurrently(address, payloads)
            assert all(r["ok"] and r["origin"] == "executed" for r in responses), responses

        def serial_pair():
            execute(1)
            execute(1)

        stored_sigmas = iter(SIGMAS_STORED)

        def store_hit():
            hit = _rpc(address, _eval_payload(profile.name, next(stored_sigmas)))
            assert hit["ok"] and hit["origin"] == "cache", hit

        # ---- warm-up (unmeasured): a concurrent distinct pair spawns both
        # worker processes and loads their model copies, so the measured
        # phases below compare pure execution, not one-off loads.
        execute(SERVE_WORKERS)

        parallel = alternating_pairs(serial_pair, lambda: execute(2), SAMPLES)
        workers_block = _rpc(address, {"op": "stats"})["stats"]["workers"]
        assert workers_block["count"] == SERVE_WORKERS
        # Both queue-draining workers actually executed something.
        assert len(workers_block["executed_per_worker"]) == SERVE_WORKERS

        before = _counters(address)
        cache = alternating_pairs(lambda: execute(1), store_hit, SAMPLES)
        after = _counters(address)
        assert after["cache_hits"] - before["cache_hits"] == SAMPLES
        assert after["executed"] - before["executed"] == SAMPLES, (
            "a stored result must be answered without running the scenario"
        )

        # ---- coalesced: K concurrent identical requests, 1 simulation ---
        start = time.perf_counter()
        responses = _submit_concurrently(
            address, [_eval_payload(profile.name, SIGMA_COALESCE)] * COALESCE_CLIENTS
        )
        coalesced_s = time.perf_counter() - start
        assert len(responses) == COALESCE_CLIENTS
        assert all(r["ok"] and r["state"] == "done" for r in responses)
        assert len({r["result"]["accuracy"] for r in responses}) == 1, (
            "coalesced clients must share one result"
        )
        final = _rpc(address, {"op": "stats"})["stats"]
        executed_delta = final["counters"]["executed"] - after["executed"]
        coalesced_delta = final["counters"]["coalesced"] - after["coalesced"]
        assert executed_delta == 1, (
            f"{COALESCE_CLIENTS} identical requests ran {executed_delta} "
            f"simulations; coalescing must collapse them to one"
        )
        assert coalesced_delta == COALESCE_CLIENTS - 1
        executed_per_worker = final["workers"]["executed_per_worker"]
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=15.0)

    cpus = usable_cpus()
    # Honest gating: true parallel speedup needs real cores.  On >= 2 CPUs
    # the concurrent-distinct pair must beat the serial pair; on one core
    # the worker processes can only interleave, so the gate rides the
    # cache-hit pairs instead (recorded as such) — and the cache-hit floor
    # is asserted unconditionally either way.
    gated_on = "parallel_distinct" if cpus >= 2 else "cache_hit"
    gated, min_required = (
        (parallel, MIN_PARALLEL_SPEEDUP) if gated_on == "parallel_distinct"
        else (cache, MIN_CACHE_SPEEDUP)
    )
    # The compute dtype the evaluation actually ran at — taken from the
    # concrete spec identity the facade payload canonicalises to.
    compute_dtype = dict(stored[0].sim)["dtype"]

    record = {
        "workload": {
            "experiment": "api_eval",
            "profile": profile.name,
            "server": "python -m repro.serve (subprocess, JSON-lines TCP)",
            "serve_workers": SERVE_WORKERS,
            "coalesce_clients": COALESCE_CLIENTS,
            "compute_dtype": compute_dtype,
            "legs": ["serial_pair", "parallel_pair"] if gated is parallel
            else ["executed", "store_hit"],
        },
        "parallel_distinct_pairs": parallel,
        "cache_hit_pairs": cache,
        "coalesced_group_s": coalesced_s,
        "coalesced_executions": executed_delta,
        "coalesced_joined": coalesced_delta,
        "executed_per_worker": executed_per_worker,
        "usable_cpus": cpus,
        "gated_on": gated_on,
        **gated,
        "min_required_speedup": min_required,
    }
    write_bench_artifact(results_dir, "serve", record)

    def legs(pairs):
        return (
            f"{np.median(pairs['a_s_samples']):.3f} vs {np.median(pairs['b_s_samples']):.3f} s, "
            f"{pairs['speedup']:.1f}x median, IQR {pairs['speedup_iqr']:.1f}"
        )

    report = "\n".join(
        [
            f"Serving latency, live `python -m repro.serve --workers "
            f"{SERVE_WORKERS}` (fast profile), {SAMPLES} alternating pairs each",
            f"  2 distinct, serial vs concurrent: {legs(parallel)}",
            f"  executed vs stored-result hit   : {legs(cache)}",
            f"  {f'{COALESCE_CLIENTS} coalesced clients':<32}: {coalesced_s:.3f} s total "
            f"({executed_delta} simulation)",
            f"  gate                            : {gated_on} >= {min_required:.1f}x "
            f"-> {gated['speedup']:.1f}x (cpus={cpus})",
            f"  compute dtype                   : {compute_dtype}",
            "  artifact                        : benchmarks/results/BENCH_serve.json",
        ]
    )
    emit_report(capsys, results_dir, "serve_latency", report)

    assert cache["speedup"] >= MIN_CACHE_SPEEDUP
    assert gated["speedup"] >= min_required
