"""Benchmark E9 — serving latency: cold, parallel-distinct, coalesced, cached.

Drives a **live** ``python -m repro.serve`` subprocess (the real deployment
shape: spawned CLI, ephemeral port, JSON-lines TCP) with ``--workers 2``
against the fast profile and measures the request classes the server
exists for:

* **cold** — first-ever evaluation of a config: spawns a worker process,
  loads the pre-trained model and runs the simulation;
* **parallel-distinct** — two *different* configs submitted concurrently:
  with per-process execution contexts there is no global execution lock,
  so they run ``min(K, workers)``-wide.  Measured against the same pair
  executed serially (fresh sigmas both times, so neither leg can cheat via
  the result store);
* **coalesced** — K concurrent *identical* requests while the evaluation
  is in flight: exactly ONE simulation runs (the server's coalescing
  counter proves it), the other K-1 share its result;
* **cache-hit** — an identical request re-submitted after completion:
  answered from the finished request record or the content-addressed result
  store without touching any model (the executed counter does not move).

Gating is honest about the host: with >= 2 usable CPUs the gate rides the
parallel-distinct speedup (the tentpole claim of the context refactor);
on a single-core host true parallelism cannot beat serial, so the gate
falls back to the cache-hit path — which is additionally plain-asserted
at >= ``MIN_CACHE_SPEEDUP`` x cold on every host.  The artifact
``benchmarks/results/BENCH_serve.json`` records all phases, the
coalescing evidence, per-worker execution counts and the compute dtype.
"""

import json
import os
import shutil
import socket
import subprocess
import sys
import threading
import time

from benchmarks.conftest import emit_report, usable_cpus, write_bench_artifact
from repro.experiments.common import prepare_checkpoint
from repro.serve import EvalRequest

MIN_CACHE_SPEEDUP = 50.0
MIN_PARALLEL_SPEEDUP = 1.4
SERVE_WORKERS = 2
COALESCE_CLIENTS = 4
SIGMA_COLD = 5.0
SIGMA_COALESCE = 10.0
SIGMAS_WARM = (24.0, 25.0)
SIGMAS_SERIAL = (20.0, 21.0)
SIGMAS_PARALLEL = (22.0, 23.0)


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
    """Submit all payloads at once; returns (responses, wall_seconds)."""
    responses = []
    lock = threading.Lock()

    def client(payload):
        response = _rpc(address, payload)
        with lock:
            responses.append(response)

    start = time.perf_counter()
    threads = [threading.Thread(target=client, args=(p,)) for p in payloads]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return responses, time.perf_counter() - start


def test_serve_latency_cold_parallel_coalesced_cached(
    bundle, capsys, results_dir, tmp_path
):
    profile = bundle.profile

    # Seed a private cache dir with ONLY the pre-trained checkpoint: the
    # server must cold-load the model (no in-process bundle reuse from this
    # test process) but never re-pretrain, and its result store starts empty
    # so the first request is genuinely cold.
    cache_dir = tmp_path / "serve_cache"
    cache_dir.mkdir()
    shutil.copy(prepare_checkpoint(profile), cache_dir)

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

        # ---- cold: worker spawn + model load + simulation --------------
        start = time.perf_counter()
        cold = _rpc(address, _eval_payload(profile.name, SIGMA_COLD))
        cold_s = time.perf_counter() - start
        assert cold["ok"] and cold["state"] == "done", cold
        assert cold["origin"] == "executed"
        cold_accuracy = cold["result"]["accuracy"]

        # ---- warm both workers (unmeasured): a concurrent distinct pair
        # makes every worker process load its model copy, so the measured
        # phases below compare pure execution, not one-off loads.
        warm, _ = _submit_concurrently(
            address, [_eval_payload(profile.name, s) for s in SIGMAS_WARM]
        )
        assert all(r["ok"] and r["state"] == "done" for r in warm), warm

        # ---- serial pair: two distinct fresh configs, back to back ------
        start = time.perf_counter()
        for sigma in SIGMAS_SERIAL:
            response = _rpc(address, _eval_payload(profile.name, sigma))
            assert response["ok"] and response["origin"] == "executed", response
        serial_pair_s = time.perf_counter() - start

        # ---- parallel pair: two distinct fresh configs, concurrently ----
        parallel, parallel_pair_s = _submit_concurrently(
            address, [_eval_payload(profile.name, s) for s in SIGMAS_PARALLEL]
        )
        assert len(parallel) == 2
        assert all(r["ok"] and r["origin"] == "executed" for r in parallel), parallel

        stats_after_parallel = _rpc(address, {"op": "stats"})["stats"]
        workers_block = stats_after_parallel["workers"]
        assert workers_block["count"] == SERVE_WORKERS
        # Both queue-draining workers actually executed something.
        per_worker = workers_block["executed_per_worker"]
        assert len(per_worker) == SERVE_WORKERS, per_worker

        # ---- coalesced: K concurrent identical requests, 1 simulation ---
        before = stats_after_parallel["counters"]
        responses, coalesced_s = _submit_concurrently(
            address,
            [_eval_payload(profile.name, SIGMA_COALESCE)] * COALESCE_CLIENTS,
        )
        assert len(responses) == COALESCE_CLIENTS
        assert all(r["ok"] and r["state"] == "done" for r in responses)
        accuracies = {r["result"]["accuracy"] for r in responses}
        assert len(accuracies) == 1, "coalesced clients must share one result"

        after = _rpc(address, {"op": "stats"})["stats"]
        executed_delta = after["counters"]["executed"] - before["executed"]
        coalesced_delta = after["counters"]["coalesced"] - before["coalesced"]
        assert executed_delta == 1, (
            f"{COALESCE_CLIENTS} identical requests ran {executed_delta} "
            f"simulations; coalescing must collapse them to one"
        )
        assert coalesced_delta == COALESCE_CLIENTS - 1

        # ---- cache-hit: identical resubmit, no model touched ------------
        start = time.perf_counter()
        hit = _rpc(address, _eval_payload(profile.name, SIGMA_COLD))
        hit_s = time.perf_counter() - start
        assert hit["ok"] and hit["state"] == "done", hit
        assert hit["result"]["accuracy"] == cold_accuracy
        final = _rpc(address, {"op": "stats"})["stats"]
        # cold + warm pair + serial pair + parallel pair + coalesce group,
        # and nothing for the hit: it joins the finished record of the cold
        # request (or, once that left the history, the stored result).
        assert final["counters"]["executed"] == after["counters"]["executed"] == 8, (
            "a repeated request must be answered without running the scenario"
        )
        answered = {
            name: final["counters"][name] - after["counters"][name]
            for name in ("coalesced", "cache_hits")
        }
        assert sum(answered.values()) == 1, answered
        executed_per_worker = final["workers"]["executed_per_worker"]
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=15.0)

    cache_speedup = cold_s / hit_s
    parallel_speedup = serial_pair_s / parallel_pair_s
    coalesced_per_client_s = coalesced_s / COALESCE_CLIENTS
    cpus = usable_cpus()

    # Honest gating: true parallel speedup needs real cores.  On >= 2 CPUs
    # the concurrent-distinct pair must beat the serial pair; on one core
    # the spawn pool can only interleave, so the gate rides the cache-hit
    # path instead (recorded as such) — and the cache-hit floor is asserted
    # unconditionally either way.
    gated_on = "parallel_distinct" if cpus >= 2 else "cache_hit"
    if gated_on == "parallel_distinct":
        gated_speedup, min_required = parallel_speedup, MIN_PARALLEL_SPEEDUP
    else:
        gated_speedup, min_required = cache_speedup, MIN_CACHE_SPEEDUP

    # The compute dtype the evaluation actually ran at — taken from the
    # concrete spec identity the facade payload canonicalises to.
    spec = EvalRequest.from_payload(
        {"profile": profile.name, "sim": {"mode": "noisy", "noise_sigma": SIGMA_COLD}}
    ).spec
    compute_dtype = dict(spec.sim)["dtype"]

    record = {
        "workload": {
            "experiment": "api_eval",
            "profile": profile.name,
            "server": "python -m repro.serve (subprocess, JSON-lines TCP)",
            "serve_workers": SERVE_WORKERS,
            "coalesce_clients": COALESCE_CLIENTS,
            "compute_dtype": compute_dtype,
        },
        "cold_s": cold_s,
        "serial_pair_s": serial_pair_s,
        "parallel_pair_s": parallel_pair_s,
        "parallel_distinct_speedup": parallel_speedup,
        "coalesced_group_s": coalesced_s,
        "coalesced_per_client_s": coalesced_per_client_s,
        "cache_hit_s": hit_s,
        "cache_hit_speedup": cache_speedup,
        "coalesced_executions": executed_delta,
        "coalesced_joined": coalesced_delta,
        "executed_per_worker": executed_per_worker,
        "usable_cpus": cpus,
        "gated_on": gated_on,
        "speedup": gated_speedup,
        "min_required_speedup": min_required,
    }
    write_bench_artifact(results_dir, "serve", record)

    report = "\n".join(
        [
            f"Serving latency, live `python -m repro.serve --workers "
            f"{SERVE_WORKERS}` (fast profile)",
            f"  cold (spin-up + simulate): {cold_s:8.3f} s",
            f"  2 distinct, serial       : {serial_pair_s:8.3f} s",
            f"  2 distinct, concurrent   : {parallel_pair_s:8.3f} s "
            f"({parallel_speedup:.2f}x)",
            f"  {COALESCE_CLIENTS} coalesced clients      : {coalesced_s:8.3f} s total "
            f"({coalesced_per_client_s:.3f} s/client, {executed_delta} simulation)",
            f"  cache-hit resubmit       : {hit_s:8.3f} s ({cache_speedup:.1f}x)",
            f"  gate                     : {gated_on} >= {min_required:.1f}x "
            f"-> {gated_speedup:.1f}x (cpus={cpus})",
            f"  compute dtype            : {compute_dtype}",
            "  artifact                 : benchmarks/results/BENCH_serve.json",
        ]
    )
    emit_report(capsys, results_dir, "serve_latency", report)

    assert cache_speedup >= MIN_CACHE_SPEEDUP
    assert gated_speedup >= min_required
