"""Tests for the distributed grid worker: drain, shard affinity, stealing.

The acceptance contract from the subsystem's design: N workers over one
shared store directory — any interleaving, any shard assignment, injected
crashes included — produce a store bit-identical to a serial
:func:`run_grid`.  The crash-recovery test at the bottom SIGKILLs a real
worker subprocess mid-scenario and proves a second worker reclaims the
expired lease and completes the suite.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.distributed.lease import LEASE_DIRNAME, LeaseManager
from repro.distributed.worker import GridWorker, shard_of, stack_chunks, worker_order
from repro.experiments.runner import (
    GridExecutionError,
    ResultStore,
    ScenarioGrid,
    ScenarioSpec,
    run_grid,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(REPO_ROOT, "src")


def _selftest_grid(count: int = 6, **extra) -> ScenarioGrid:
    return ScenarioGrid(
        name="worker-suite",
        specs=tuple(
            ScenarioSpec.create("selftest", method=f"m{i}", value=i, **extra)
            for i in range(count)
        ),
    )


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _assert_store_matches_serial(store: ResultStore, grid: ScenarioGrid, tmp_path):
    """The shared invariant: distributed results == serial results, per spec."""
    serial = ResultStore(str(tmp_path / "serial-oracle"))
    outcome = run_grid(grid, store=serial)
    for spec in grid:
        assert store.get(spec) == outcome.results[spec.hash], spec.label()


class TestSharding:
    def test_shard_of_partitions_all_hashes(self):
        grid = _selftest_grid(20)
        shards = [shard_of(spec.hash, 4) for spec in grid]
        assert all(0 <= shard < 4 for shard in shards)
        # Deterministic: same input, same answer, every call.
        assert shards == [shard_of(spec.hash, 4) for spec in grid]

    def test_shard_of_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            shard_of("abcd", 0)

    def test_worker_order_visits_own_shard_first(self):
        specs = list(_selftest_grid(20))
        order = worker_order(specs, shard_index=1, num_shards=3)
        assert sorted(order, key=lambda s: s.hash) == sorted(specs, key=lambda s: s.hash)
        mine = [spec for spec in order if shard_of(spec.hash, 3) == 1]
        assert order[: len(mine)] == mine  # affine prefix, stealing suffix

    def test_worker_orders_cover_disjoint_prefixes(self):
        specs = list(_selftest_grid(20))
        prefixes = []
        for index in range(3):
            order = worker_order(specs, shard_index=index, num_shards=3)
            own = [s for s in order if shard_of(s.hash, 3) == index]
            prefixes.append({s.hash for s in order[: len(own)]})
        assert prefixes[0] | prefixes[1] | prefixes[2] == {s.hash for s in specs}
        assert not (prefixes[0] & prefixes[1] or prefixes[1] & prefixes[2])

    @pytest.mark.parametrize("size, shards", [(28, 2), (5, 2), (7, 3), (2, 3)])
    def test_stack_chunks_are_contiguous_and_near_equal(self, size, shards):
        group = list(_selftest_grid(size))
        chunks = stack_chunks([group], shards)
        ordered = sorted(group, key=lambda spec: spec.hash)
        owners = [chunks[spec.hash][0] for spec in ordered]
        assert owners == sorted(owners)  # contiguous in hash order, chunk i is shard i's
        sizes = [owners.count(index) for index in range(shards)]
        assert max(sizes) - min(sizes) <= 1
        assert all(spec in chunks[spec.hash][1] for spec in group)
        order = worker_order(
            group, shard_index=1, num_shards=shards,
            shards={spec_hash: shard for spec_hash, (shard, _) in chunks.items()},
        )
        assert list(order[: sizes[1]]) == [s for s in ordered if chunks[s.hash][0] == 1]

    def test_worker_order_requires_both_shard_arguments(self):
        specs = list(_selftest_grid(3))
        with pytest.raises(ValueError):
            worker_order(specs, shard_index=0)
        with pytest.raises(ValueError):
            worker_order(specs, shard_index=5, num_shards=2)


class TestDrain:
    def test_single_worker_drain_matches_serial(self, tmp_path):
        grid = _selftest_grid()
        store = ResultStore(str(tmp_path / "store"))
        report = GridWorker(grid, store).drain()
        assert len(report.executed) == len(grid)
        assert report.cached == 0 and not report.stolen and not report.reclaimed
        _assert_store_matches_serial(store, grid, tmp_path)

    def test_drain_skips_cached_results(self, tmp_path):
        grid = _selftest_grid()
        specs = list(grid)
        store = ResultStore(str(tmp_path / "store"))
        run_grid(ScenarioGrid(name="half", specs=tuple(specs[:3])), store=store)
        report = GridWorker(grid, store).drain()
        assert report.cached == 3
        assert len(report.executed) == 3
        assert not os.listdir(os.path.join(store.root, LEASE_DIRNAME))  # all released

    def test_result_stored_between_check_and_claim_is_not_rerun(self, tmp_path):
        """Another worker may store a scenario and release its lease after
        this worker saw no result but before it claimed: the claim then
        succeeds, and the worker must notice the result instead of
        executing the scenario a second time."""
        grid = _selftest_grid(4)
        raced = min(grid, key=lambda spec: spec.hash)  # first in visit order
        oracle = run_grid(grid, store=ResultStore(str(tmp_path / "oracle")))

        class RacingStore(ResultStore):
            misses = 0

            def get(self, spec):
                value = super().get(spec)
                if spec == raced and value is None:
                    self.misses += 1
                    if self.misses == 2:  # the check right before the claim
                        self.put(spec, oracle.results[spec.hash])
                return value

        store = RacingStore(str(tmp_path / "store"))
        report = GridWorker(grid, store).drain()
        assert raced.hash not in report.executed
        assert len(report.executed) == len(grid) - 1
        assert report.lease_lost == 1
        assert not os.listdir(os.path.join(store.root, LEASE_DIRNAME))
        _assert_store_matches_serial(store, grid, tmp_path)

    def test_max_scenarios_bounds_this_workers_budget(self, tmp_path):
        grid = _selftest_grid()
        store = ResultStore(str(tmp_path / "store"))
        report = GridWorker(grid, store).drain(max_scenarios=2)
        assert len(report.executed) == 2
        # The rest is untouched and a second drain finishes it.
        rest = GridWorker(grid, store).drain()
        assert len(rest.executed) == len(grid) - 2
        _assert_store_matches_serial(store, grid, tmp_path)

    def test_two_workers_taking_turns_match_serial(self, tmp_path):
        grid = _selftest_grid(8)
        store = ResultStore(str(tmp_path / "store"))
        first = GridWorker(grid, store, shard_index=0, num_shards=2)
        second = GridWorker(grid, store, shard_index=1, num_shards=2)
        report_a = first.drain(max_scenarios=3)
        report_b = second.drain()  # finishes everything the first left
        assert len(report_a.executed) + len(report_b.executed) == len(grid)
        # Whatever of shard 0 the first worker left behind was stolen.
        shard0_left = [
            h for h in report_b.executed if shard_of(h, 2) == 0
        ]
        assert set(report_b.stolen) == set(shard0_left)
        _assert_store_matches_serial(store, grid, tmp_path)

    def test_expired_lease_is_reclaimed_and_executed(self, tmp_path):
        # A "crashed worker" is simulated by a claim whose mtime is ancient:
        # the drain must steal it, record the reclaim, and run the scenario.
        grid = _selftest_grid()
        victim_spec = list(grid)[0]
        store = ResultStore(str(tmp_path / "store"))
        dead = LeaseManager(store.root, owner="dead-worker", ttl=30.0)
        assert dead.acquire(victim_spec.hash)
        stale = time.time() - 3600
        os.utime(dead.lease_path(victim_spec.hash), (stale, stale))

        report = GridWorker(grid, store).drain()
        assert victim_spec.hash in report.reclaimed
        assert len(report.executed) == len(grid)
        _assert_store_matches_serial(store, grid, tmp_path)

    def test_drain_waits_out_a_live_foreign_lease(self, tmp_path):
        # Another worker holds a live claim; this worker must poll, not
        # steal — and finish once the owner delivers the result.
        grid = _selftest_grid(3)
        specs = list(grid)
        store = ResultStore(str(tmp_path / "store"))
        other = LeaseManager(store.root, owner="other", ttl=30.0)
        assert other.acquire(specs[0].hash)

        def deliver():
            time.sleep(0.4)
            serial = ResultStore(str(tmp_path / "other-result"))
            outcome = run_grid(ScenarioGrid(name="one", specs=(specs[0],)), store=serial)
            store.put(specs[0], outcome.results[specs[0].hash])
            other.release(specs[0].hash)

        thread = threading.Thread(target=deliver)
        thread.start()
        try:
            report = GridWorker(grid, store, poll_s=0.05).drain()
        finally:
            thread.join()
        assert specs[0].hash not in report.executed
        assert report.polls >= 1
        _assert_store_matches_serial(store, grid, tmp_path)

    def test_unrecoverable_failure_raises_after_completing_the_rest(self, tmp_path):
        grid = ScenarioGrid(
            name="with-failure",
            specs=tuple(list(_selftest_grid(3)) + [
                ScenarioSpec.create("selftest", method="boom", fail=True)
            ]),
        )
        store = ResultStore(str(tmp_path / "store"))
        with pytest.raises(GridExecutionError) as excinfo:
            GridWorker(grid, store).drain()
        assert "no live claimant" in str(excinfo.value)
        # The healthy scenarios all completed before the raise.
        done = [spec for spec in grid if store.get(spec) is not None]
        assert len(done) == 3

    def test_failed_scenario_leaves_no_lease_behind(self, tmp_path):
        grid = ScenarioGrid(
            name="fail-only",
            specs=(ScenarioSpec.create("selftest", method="boom", fail=True),),
        )
        store = ResultStore(str(tmp_path / "store"))
        with pytest.raises(GridExecutionError):
            GridWorker(grid, store).drain()
        lease_dir = os.path.join(store.root, LEASE_DIRNAME)
        assert not os.path.isdir(lease_dir) or not os.listdir(lease_dir)


#: Runs ``python -m repro.distributed`` in-process after installing an import
#: hook that records the BLAS thread variables the moment numpy is imported.
_NUMPY_IMPORT_PROBE = """
import importlib.abc, json, os, runpy, sys

VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
seen = {}


class NumpyImportProbe(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update((variable, os.environ.get(variable)) for variable in VARIABLES)
        return None


assert "numpy" not in sys.modules
sys.meta_path.insert(0, NumpyImportProbe())
try:
    runpy.run_module("repro.distributed", run_name="__main__", alter_sys=True)
except SystemExit as stop:
    assert not stop.code, stop.code
print(json.dumps(seen))
"""

#: A ``sitecustomize`` that, in every interpreter started with it on the
#: path, appends the BLAS thread variables seen when numpy is imported,
#: with that interpreter's command line, to ``$NUMPY_PROBE_LOG``.
_SITE_NUMPY_IMPORT_PROBE = """
import importlib.abc, json, os, sys

VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class NumpyImportProbe(importlib.abc.MetaPathFinder):
    recorded = False

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not self.recorded:
            self.recorded = True
            record = {
                "argv": sys.orig_argv,
                "env": {variable: os.environ.get(variable) for variable in VARIABLES},
            }
            with open(os.environ["NUMPY_PROBE_LOG"], "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\\n")
        return None


sys.meta_path.insert(0, NumpyImportProbe())
"""


class TestWorkerProcess:
    def test_cli_pins_blas_threads_before_numpy_loads(self, tmp_path):
        """Two CLI workers on two cores must not each run a multi-thread BLAS
        pool; BLAS sizes its pool when numpy loads, so the pin must come first."""
        specs_file = tmp_path / "suite.json"
        specs_file.write_text(json.dumps([spec.as_dict() for spec in _selftest_grid(1)]))
        variables = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        env = _worker_env()
        env.update(dict.fromkeys(variables, "4"))
        result = subprocess.run(
            [sys.executable, "-c", _NUMPY_IMPORT_PROBE,
             "--specs", str(specs_file), "--store", str(tmp_path / "store")],
            env=env, cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        seen = json.loads(result.stdout.strip().splitlines()[-1])
        assert seen == dict.fromkeys(variables, "1")

    def test_experiments_work_pins_blas_threads_before_numpy_loads(self, tmp_path):
        """``python -m repro.experiments work`` has loaded numpy before it can
        pin, so it must hand over to the pinned ``repro.distributed`` entry
        point; the worker's interpreter must see the pin when numpy loads."""
        probe_dir = tmp_path / "probe"
        probe_dir.mkdir()
        (probe_dir / "sitecustomize.py").write_text(_SITE_NUMPY_IMPORT_PROBE)
        log = tmp_path / "numpy_imports.jsonl"
        variables = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        env = _worker_env()
        env["PYTHONPATH"] = str(probe_dir) + os.pathsep + env["PYTHONPATH"]
        env["NUMPY_PROBE_LOG"] = str(log)
        env.update(dict.fromkeys(variables, "4"))
        result = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "--cache-dir", str(tmp_path / "cache"),
             "work", "fig1b", "--profile", "smoke", "--max-scenarios", "0"],
            env=env, cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "draining" in result.stdout
        records = [json.loads(line) for line in log.read_text().splitlines()]
        workers = [record for record in records if "repro.distributed" in record["argv"]]
        assert len(workers) == 1, records
        assert workers[0]["env"] == dict.fromkeys(variables, "1")


class TestConcurrentWorkers:
    """Real worker subprocesses sharing one store directory."""

    def _spawn(self, specs_file, store_dir, owner, ttl, extra=()):
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro.distributed",
                "--specs", str(specs_file),
                "--store", str(store_dir),
                "--owner", owner,
                "--ttl", str(ttl),
                "--poll", "0.2",
                *extra,
            ],
            env=_worker_env(),
            cwd=REPO_ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )

    def _write_specs(self, tmp_path, grid) -> str:
        specs_file = tmp_path / "suite.json"
        specs_file.write_text(json.dumps([spec.as_dict() for spec in grid]))
        return str(specs_file)

    @pytest.mark.slow
    def test_two_concurrent_workers_match_serial(self, tmp_path):
        """Acceptance: two live workers racing over one store == serial."""
        grid = _selftest_grid(10, sleep_s=0.05)
        specs_file = self._write_specs(tmp_path, grid)
        store_dir = tmp_path / "store"
        workers = [
            self._spawn(
                specs_file, store_dir, owner=f"w{i}", ttl=30.0,
                extra=["--shard-index", str(i), "--num-shards", "2"],
            )
            for i in range(2)
        ]
        outputs = [worker.communicate(timeout=120)[0] for worker in workers]
        assert [worker.returncode for worker in workers] == [0, 0], outputs
        store = ResultStore(str(store_dir))
        _assert_store_matches_serial(store, grid, tmp_path)
        # Every scenario executed exactly once across the pair (live leases
        # mean no duplicate work in the healthy case).
        executed = sum(
            int(line.split("executed ")[1].split()[0])
            for line in "".join(outputs).splitlines()
            if "executed" in line
        )
        assert executed == len(grid)

    @pytest.mark.slow
    def test_sigkilled_worker_is_reclaimed_by_survivor(self, tmp_path):
        """Acceptance: crash mid-scenario -> lease expires -> second worker
        reclaims, completes, and the final store is bit-identical to serial."""
        sleeper = ScenarioSpec.create("selftest", method="sleeper", value=99, sleep_s=2.0)
        fast = [
            ScenarioSpec.create("selftest", method=f"fast{i}", value=i) for i in range(4)
        ]
        grid = ScenarioGrid(name="crash-suite", specs=tuple(fast + [sleeper]))
        specs_file = self._write_specs(tmp_path, grid)
        store_dir = tmp_path / "store"

        ttl = 1.0
        victim = self._spawn(specs_file, store_dir, owner="victim", ttl=ttl)
        try:
            # Wait for the victim to claim the sleeper, then SIGKILL it
            # mid-scenario: the claim appears *before* the 2s sleep starts,
            # so killing right after the claim lands inside the scenario.
            leases = LeaseManager(str(store_dir), owner="observer", ttl=ttl)
            deadline = time.time() + 60
            while leases.owner_of(sleeper.hash) != "victim":
                assert time.time() < deadline, "victim never claimed the sleeper"
                assert victim.poll() is None, victim.communicate()[0]
                time.sleep(0.05)
            os.kill(victim.pid, signal.SIGKILL)
            victim.wait(timeout=30)
        finally:
            if victim.poll() is None:
                victim.kill()

        # The victim is dead, its result was never written, and its lease
        # file survives as an orphaned claim.
        store = ResultStore(str(store_dir))
        assert leases.owner_of(sleeper.hash) == "victim"
        assert store.get(sleeper) is None

        # A second worker must wait out the TTL, reclaim the orphaned
        # scenario, re-execute it, and finish whatever else is pending.
        survivor = self._spawn(specs_file, store_dir, owner="survivor", ttl=ttl)
        output, _ = survivor.communicate(timeout=120)
        assert survivor.returncode == 0, output

        assert leases.owner_of(sleeper.hash) is None  # released after reclaim
        assert "reclaimed 1" in output
        _assert_store_matches_serial(store, grid, tmp_path)
