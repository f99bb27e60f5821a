"""Tests for the scenario-pipeline runner: specs, store, resume, parallelism.

The correctness contract under test: a scenario's result is a pure function
of its spec.  Hence (1) a cached-resume run and a fresh serial run of the
same grid are bit-identical, (2) a parallel (worker-pool) run matches the
serial oracle exactly, and (3) execution order within a grid is irrelevant.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.distributed.lease import DEFAULT_TTL_S, LeaseManager
from repro.experiments.common import clear_bundle_cache, get_cache_dir
from repro.experiments.profiles import get_profile
from repro.experiments.runner import (
    GridExecutionError,
    MemoryStore,
    ResultStore,
    ScenarioGrid,
    ScenarioSpec,
    run_grid,
)
from repro.experiments.registry import EXPERIMENTS


# ---------------------------------------------------------------------------
# Fast (unmarked) tests: spec model, store mechanics, cache-dir laziness
# ---------------------------------------------------------------------------
class TestScenarioSpec:
    def test_hash_is_stable_and_content_addressed(self):
        a = ScenarioSpec.create("table1", method="Baseline", profile="smoke", sigma=4.0, pulses=8)
        b = ScenarioSpec.create("table1", method="Baseline", profile="smoke", sigma=4.0, pulses=8)
        c = ScenarioSpec.create("table1", method="Baseline", profile="smoke", sigma=6.0, pulses=8)
        assert a.hash == b.hash
        assert a.hash != c.hash

    def test_param_order_does_not_change_hash(self):
        a = ScenarioSpec.create("fig1b", bits=3, num_trials=10)
        b = ScenarioSpec.create("fig1b", num_trials=10, bits=3)
        assert a.hash == b.hash

    def test_roundtrip_through_dict(self):
        spec = ScenarioSpec.create(
            "table2", method="NIA+GBO", profile="smoke", sigma=4.0, gamma=1e-4,
            overrides={"num_train": 32}, nia_pla_pulses=10,
        )
        clone = ScenarioSpec.from_dict(spec.as_dict())
        assert clone == spec
        assert clone.hash == spec.hash

    def test_derived_seed_differs_between_scenarios(self):
        a = ScenarioSpec.create("table1", method="Baseline", profile="smoke", sigma=4.0)
        b = ScenarioSpec.create("table1", method="PLA10", profile="smoke", sigma=4.0)
        assert a.derived_seed(2022) != b.derived_seed(2022)
        assert a.derived_seed(2022) == a.derived_seed(2022)

    def test_label_shows_a_per_layer_sigma(self):
        """A served per-layer sigma logs apart from a sigma-0 request: the
        spec carries no scalar sigma, so the label reads the attached config."""
        from repro.serve import EvalRequest

        def label(sigma):
            payload = {"profile": "smoke", "sim": {"mode": "noisy", "noise_sigma": sigma}}
            return EvalRequest.from_payload(payload).label()

        assert label([0, 6, 0]) == "api_eval evaluate sigma=[0,6,0]"
        assert label(0) == "api_eval evaluate"
        assert label(6) == "api_eval evaluate sigma=6"

    def test_grid_rejects_duplicates(self):
        spec = ScenarioSpec.create("fig1b", bits=2)
        with pytest.raises(ValueError):
            ScenarioGrid(name="dup", specs=(spec, spec))

    def test_grid_helpers(self):
        grid = ScenarioGrid.from_product(
            "g", "table1", methods=["Baseline", "PLA10"], sigmas=[4.0, 6.0], profile="smoke"
        )
        assert len(grid) == 4
        assert grid.experiments() == ("table1",)
        subset = grid.subset(lambda s: s.method == "Baseline")
        assert len(subset) == 2


class TestResultStore:
    def test_put_get_roundtrip_and_jsonify(self, tmp_path):
        store = ResultStore(str(tmp_path / "runner"))
        spec = ScenarioSpec.create("fig1b", bits=2)
        stored = store.put(spec, {"value": np.float64(1.5), "row": np.array([1, 2])})
        assert stored == {"value": 1.5, "row": [1, 2]}
        assert store.get(spec) == stored
        assert store.has(spec)

    def test_miss_returns_none(self, tmp_path):
        store = ResultStore(str(tmp_path / "runner"))
        assert store.get(ScenarioSpec.create("fig1b", bits=5)) is None

    def test_stage_state_caches(self, tmp_path):
        store = ResultStore(str(tmp_path / "runner"))
        calls = []

        def compute():
            calls.append(1)
            return {"w": np.arange(3.0)}

        first = store.stage_state({"kind": "t"}, compute)
        second = store.stage_state({"kind": "t"}, compute)
        assert len(calls) == 1
        assert np.array_equal(first["w"], second["w"])

    def test_memory_store_results_are_isolated_copies(self):
        """Regression: get/put used to return the cached dict by reference,
        so a caller mutating its result contaminated later cache hits."""
        store = MemoryStore()
        spec = ScenarioSpec.create("selftest", value=1)
        pristine = {"rows": [1, 2], "nested": {"k": [0.5]}}
        put_view = store.put(spec, {"rows": [1, 2], "nested": {"k": [0.5]}})
        put_view["rows"].append(99)
        put_view["nested"]["k"][0] = -1.0
        first = store.get(spec)
        assert first == pristine
        first["rows"].append(77)
        first["nested"]["k"].clear()
        assert store.get(spec) == pristine

    def test_stage_state_compute_path_returns_copies(self, tmp_path):
        """Regression: the compute path used to hand back ``compute``'s own
        arrays (the load path copied), so mutating a 'computed' stage could
        reach state the computation kept live."""
        store = ResultStore(str(tmp_path / "runner"))
        live = {"w": np.arange(3.0)}
        computed = store.stage_state({"kind": "copy"}, lambda: live)
        computed["w"][0] = 99.0
        assert live["w"][0] == 0.0
        reloaded = store.stage_state({"kind": "copy"}, lambda: {"w": np.zeros(1)})
        assert np.array_equal(reloaded["w"], np.arange(3.0))

    def test_memory_store_shares_stages(self):
        store = MemoryStore()
        calls = []
        state = store.stage_state({"k": 1}, lambda: (calls.append(1), {"w": np.ones(2)})[1])
        again = store.stage_state({"k": 1}, lambda: (calls.append(1), {"w": np.ones(2)})[1])
        assert len(calls) == 1
        # Copies, so callers cannot corrupt the cached state.
        state["w"][0] = 99.0
        assert again["w"][0] == 1.0


class TestCacheDirLaziness:
    def test_repro_cache_dir_honoured_after_import(self, tmp_path, monkeypatch):
        """Satellite fix: the env var must be read lazily, not at import."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "late"))
        assert get_cache_dir() == str(tmp_path / "late")
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert get_cache_dir() == os.path.join(os.getcwd(), ".repro_cache")

    def test_default_store_follows_cache_dir(self, tmp_path, monkeypatch):
        from repro.experiments.runner.store import default_store

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_store().root == str(tmp_path / "elsewhere" / "runner")


class TestRegistryCompleteness:
    def test_every_benchmark_path_exists(self):
        """Satellite: every ExperimentSpec.benchmark must exist on disk."""
        repo_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        for spec in EXPERIMENTS.values():
            path = os.path.join(repo_root, spec.benchmark)
            assert os.path.exists(path), f"{spec.identifier}: missing benchmark {spec.benchmark}"

    def test_every_experiment_has_grid_and_assemble(self):
        for spec in EXPERIMENTS.values():
            assert callable(spec.grid), f"{spec.identifier}: no grid factory"
            assert callable(spec.assemble), f"{spec.identifier}: no assembler"

    def test_grids_are_buildable_and_disjoint(self):
        """Default grids build for the smoke profile and never collide."""
        profile = get_profile("smoke")
        seen = {}
        for spec in EXPERIMENTS.values():
            grid = spec.grid(profile)
            assert len(grid) > 0
            for scenario in grid:
                assert scenario.experiment == spec.identifier
                assert scenario.hash not in seen, (
                    f"hash collision between {scenario.label()} and {seen[scenario.hash]}"
                )
                seen[scenario.hash] = scenario.label()


# ---------------------------------------------------------------------------
# Slow tests: end-to-end resume / parallel correctness on the smoke profile
# ---------------------------------------------------------------------------
@pytest.fixture()
def isolated_cache(tmp_path, monkeypatch):
    """A private cache dir + result store, and a clean bundle cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_bundle_cache()
    yield ResultStore(str(tmp_path / "runner"))
    clear_bundle_cache()


@pytest.mark.slow
class TestRunnerEndToEnd:
    def _grid(self):
        from repro.experiments.table1 import table1_grid

        profile = get_profile("smoke")
        return table1_grid(
            profile, sigmas=[profile.sigmas[0]], pla_pulse_counts=[10], include_gbo=True
        )

    def test_cached_resume_matches_fresh_serial(self, isolated_cache):
        """Satellite: resume and fresh serial runs are bit-identical."""
        grid = self._grid()
        fresh = run_grid(grid)  # no store: everything computed in-process
        populated = run_grid(grid, store=isolated_cache)
        assert populated.executed == len(grid) and populated.cached == 0
        resumed = run_grid(grid, store=isolated_cache)
        assert resumed.cached == len(grid) and resumed.executed == 0
        assert resumed.results == fresh.results
        assert populated.results == fresh.results

    def test_scenario_dtype_does_not_reach_the_next_scenario(self, isolated_cache):
        """A float32 ``api_eval`` scenario leaves the context's dtype as it found it."""
        from repro.api import eval_scenario_spec
        from repro.context import current_context
        from repro.sim import SimConfig

        spec = eval_scenario_spec(
            "smoke", SimConfig(mode="noisy", noise_sigma=4.0, dtype="float32")
        )
        before = current_context().dtype_name
        run_grid(ScenarioGrid(name="float32", specs=(spec,)), batch=False)
        assert current_context().dtype_name == before == "float64"

    def test_partial_store_resumes_only_missing(self, isolated_cache):
        """An interrupted suite picks up exactly where it left off."""
        grid = self._grid()
        first_half = ScenarioGrid(name=grid.name, specs=grid.specs[:2])
        run_grid(first_half, store=isolated_cache)
        full = run_grid(grid, store=isolated_cache)
        assert full.cached == 2
        assert full.executed == len(grid) - 2
        assert run_grid(grid).results == full.results

    def test_parallel_matches_serial_oracle(self, isolated_cache):
        """Satellite: a --workers 2 run is bit-identical to the serial oracle."""
        grid = self._grid()
        serial = run_grid(grid)
        parallel = run_grid(grid, workers=2, store=isolated_cache)
        assert parallel.executed == len(grid)
        assert parallel.results == serial.results

    def test_stacked_drain_matches_serial_and_unstacked(self, isolated_cache):
        """The smoke eval suite (Table I uniform rows, Fig. 2, A1) drained at
        ``workers=2`` equals the serial run and the unstacked serial run
        result for result.  Each worker stacks its chunk of the one stack
        group: the two chunks cover the suite, differ in size by at most
        one, and no scenario runs twice."""
        from repro.experiments.ablations import encoding_ablation_grid
        from repro.experiments.fig2 import fig2_grid
        from repro.experiments.table1 import table1_grid

        profile = get_profile("smoke")
        grid = ScenarioGrid.concat(
            "smoke_eval_suite",
            [
                table1_grid(profile, include_gbo=False),
                fig2_grid(profile),
                encoding_ablation_grid(profile),
            ],
        )
        serial = run_grid(grid)
        unstacked = run_grid(grid, batch=False)
        drained = run_grid(grid, workers=2, store=isolated_cache)
        assert drained.executed == len(grid)
        assert drained.results == serial.results
        assert drained.results == unstacked.results
        sizes = sorted(len(stack) for stack in drained.stacks)
        assert len(sizes) == 2 and sizes[1] - sizes[0] <= 1
        assert sorted(h for stack in drained.stacks for h in stack) == sorted(
            spec.hash for spec in grid
        )
        assert drained.executions == {spec.hash: 1 for spec in grid}

    def test_parallel_without_store_drains_a_temporary_store(self, tmp_path, monkeypatch):
        """``store=None`` drains into a temporary store: the results equal
        the serial oracle, and the temporary directory is removed."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        grid = self._grid()
        serial = run_grid(grid)
        parallel = run_grid(grid, workers=2)
        assert parallel.executed == len(grid)
        assert parallel.results == serial.results
        assert set(parallel.per_scenario_s) == {spec.hash for spec in grid}
        assert os.listdir(scratch) == []

    def test_parallel_without_resume_recomputes_a_populated_store(self, isolated_cache):
        """``resume=False`` re-executes every scenario and writes the new
        results back into the caller's store."""
        grid = self._grid()
        serial = run_grid(grid, store=isolated_cache)

        def created():
            return {
                spec.hash: json.loads(Path(isolated_cache.result_path(spec)).read_text())["created"]
                for spec in grid
            }

        before = created()
        rerun = run_grid(grid, workers=2, store=isolated_cache, resume=False)
        assert rerun.executed == len(grid) and rerun.cached == 0
        assert rerun.results == serial.results
        assert set(rerun.per_scenario_s) == {spec.hash for spec in grid}
        after = created()
        assert all(after[key] > before[key] for key in before)
        assert all(isolated_cache.get(spec) == serial.results[spec.hash] for spec in grid)

    def test_killed_worker_keeps_finished_results_and_resumes(self, isolated_cache):
        """SIGKILL one of two workers mid-scenario: it orphans only its own
        claim, the survivor steals it after the local lease TTL (well before
        the distributed one), and the same call completes, bit-identical to
        serial.  A re-run then finds everything cached."""
        fast = tuple(
            ScenarioSpec.create("selftest", method=f"fast{i}", value=i, sleep_s=0.1)
            for i in range(4)
        )
        sleeper = ScenarioSpec.create("selftest", method="sleeper", value=99, sleep_s=2.5)
        grid = ScenarioGrid(name="crash_grid", specs=(*fast, sleeper))
        leases = LeaseManager(isolated_cache.root, owner="observer")
        outcomes, errors = [], []

        def drain():
            try:
                outcomes.append(run_grid(grid, workers=2, store=isolated_cache))
            except Exception as error:  # reported below
                errors.append(error)

        thread = threading.Thread(target=drain)
        start = time.monotonic()
        thread.start()
        try:
            deadline = time.monotonic() + 60
            while leases.owner_of(sleeper.hash) is None or not all(
                isolated_cache.get(spec) is not None for spec in fast
            ):
                assert time.monotonic() < deadline, "the drain never reached the sleeper"
                assert thread.is_alive(), errors
                time.sleep(0.02)
            # Lease owners are "<host>-<pid>-<tail>": kill the sleeper's owner.
            victim = leases.owner_of(sleeper.hash)
            pid = int(victim.rsplit("-", 2)[1])
            children = {child.pid for child in multiprocessing.active_children()}
            assert pid in children
            os.kill(pid, signal.SIGKILL)
        finally:
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert not errors, errors
        (outcome,) = outcomes
        assert time.monotonic() - start < DEFAULT_TTL_S + 30
        assert outcome.executed == len(grid) and outcome.cached == 0
        assert outcome.results == run_grid(grid).results
        # The survivor re-ran the sleeper under a claim of its own.
        assert sleeper.hash in outcome.per_scenario_s
        assert leases.owner_of(sleeper.hash) is None
        # Every worker process of the call, the survivor too, was joined.
        assert not children & {child.pid for child in multiprocessing.active_children()}

        resumed = run_grid(grid, workers=2, store=isolated_cache)
        assert resumed.cached == len(grid) and resumed.executed == 0
        assert resumed.results == outcome.results

    def test_parallel_matches_serial_with_engine_pin(self, isolated_cache):
        """Bit-identity must also hold when scenarios pin an engine.

        Regression guard: the NIA stage used to train on whatever engine the
        shared model carried (serial: the previous scenario's pin; worker: the
        profile default), which broke serial/parallel equality under
        ``--engine`` — the stage now pins the scenario's engine and keys on it.
        """
        from repro.experiments.table2 import table2_grid

        profile = get_profile("smoke")
        grid = table2_grid(profile, sigmas=[profile.sigmas[0]], engine="reference")
        serial = run_grid(grid)
        parallel = run_grid(grid, workers=2, store=isolated_cache)
        assert parallel.results == serial.results

    def test_engine_instance_pins_are_canonicalised(self):
        """An engine *instance* pin hashes like its registry name."""
        from repro.backend import get_engine
        from repro.experiments.table1 import table1_grid

        profile = get_profile("smoke")
        by_name = table1_grid(profile, engine="vectorized", gbo_engine="reference")
        by_instance = table1_grid(
            profile, engine=get_engine("vectorized"), gbo_engine=get_engine("reference")
        )
        assert [s.hash for s in by_name] == [s.hash for s in by_instance]
        with pytest.raises(TypeError):
            table1_grid(profile, engine=object())

    def test_store_keys_carry_the_resolved_backend(self):
        """Results produced under one backend can't answer the other's lookups."""
        from repro.experiments.table1 import table1_grid

        profile = get_profile("smoke")
        default_grid = table1_grid(profile)
        assert all(s.engine == profile.backend for s in default_grid)
        pinned_grid = table1_grid(profile.with_overrides(backend="reference"))
        assert all(s.engine == "reference" for s in pinned_grid)
        assert {s.hash for s in default_grid}.isdisjoint(s.hash for s in pinned_grid)

    def test_profile_overrides_are_honoured_and_hashed(self, isolated_cache):
        """Overridden profiles execute with the override in every mode.

        Regression guard: ctx.profile used to prefer the attached bundle's
        profile, so overrides that share the bundle's pre-train token (e.g.
        eval_repeats) were hashed into the spec but ignored in serial mode
        while workers honoured them.
        """
        from repro.experiments.table1 import table1_grid

        base = get_profile("smoke")
        overridden = base.with_overrides(eval_repeats=2)
        grid = table1_grid(
            overridden, sigmas=[base.sigmas[0]], pla_pulse_counts=[], include_gbo=False
        )
        assert dict(grid.specs[0].overrides) == {"eval_repeats": 2}
        base_grid = table1_grid(
            base, sigmas=[base.sigmas[0]], pla_pulse_counts=[], include_gbo=False
        )
        serial = run_grid(grid)
        parallel = run_grid(grid, workers=2, store=isolated_cache)
        assert parallel.results == serial.results
        # And the override is really live: a 2-repeat average differs from
        # the 1-repeat result of the base profile's scenario.
        base_result = run_grid(base_grid).results[base_grid.specs[0].hash]
        assert serial.results[grid.specs[0].hash] != base_result

    def test_execution_order_is_irrelevant(self, isolated_cache):
        """Scenario independence: reversing the grid changes nothing."""
        grid = self._grid()
        forward = run_grid(grid)
        reversed_grid = ScenarioGrid(name=grid.name, specs=tuple(reversed(grid.specs)))
        backward = run_grid(reversed_grid)
        assert forward.results == backward.results

    def test_table2_nia_stage_shared_and_deterministic(self, isolated_cache):
        """The NIA stage is computed once per sigma yet scenarios stay pure."""
        from repro.experiments.table2 import table2_grid

        profile = get_profile("smoke")
        grid = table2_grid(profile, sigmas=[profile.sigmas[0]])
        serial = run_grid(grid)  # MemoryStore stage sharing
        stored = run_grid(grid, store=isolated_cache)  # disk stage sharing
        nia_only = grid.subset(lambda s: s.method == "NIA")
        solo = run_grid(nia_only)  # no sharing at all: stage recomputed
        assert serial.results == stored.results
        for spec in nia_only:
            assert solo.results[spec.hash] == serial.results[spec.hash]

    def test_failing_scenario_persists_completed_siblings(self, isolated_cache):
        """Regression: _run_parallel used to abort at the first failed
        future, so scenarios that *finished* in other workers were never
        persisted and their work was lost on resume.  The failing scenario
        executes once per run, not once per worker."""
        ok = tuple(
            ScenarioSpec.create("selftest", method=f"ok{i}", sleep_s=2.0, value=i)
            for i in range(2)
        )
        # The failing spec goes first and fails instantly, so its future
        # completes long before the sleeping siblings do.
        bad = ScenarioSpec.create("selftest", method="boom", fail=True)
        grid = ScenarioGrid(name="failure_grid", specs=(bad, *ok))
        with pytest.raises(GridExecutionError) as excinfo:
            run_grid(grid, workers=2, store=isolated_cache)
        assert "boom" in str(excinfo.value)
        assert bad in excinfo.value.failures
        # The failure marker beside its lease kept the second worker from
        # trying it again, and the run cleared its markers on the way out.
        assert excinfo.value.executions[bad.hash] == 1
        assert not list(Path(isolated_cache.root).glob("leases/*.failed"))
        for spec in ok:
            assert isolated_cache.get(spec) is not None, (
                f"completed sibling {spec.label()} was not persisted"
            )
        assert isolated_cache.get(bad) is None
        resumed = run_grid(ScenarioGrid(name="ok_only", specs=ok), store=isolated_cache)
        assert resumed.cached == len(ok) and resumed.executed == 0

    def test_run_experiment_through_registry(self, isolated_cache):
        """The registry entry point assembles the same result as the grid's
        own three steps (grid -> run_grid -> assembler) run without a store."""
        from repro.experiments import run_experiment
        from repro.experiments.ablations import assemble_pla_error, pla_error_grid

        assembled, outcome = run_experiment("ablation_pla_error", store=isolated_cache)
        grid = pla_error_grid()
        direct = assemble_pla_error(grid, run_grid(grid).results)
        assert outcome.executed == len(outcome.grid)
        assert [(r.num_pulses, r.mode, r.mean_abs_error) for r in assembled] == [
            (r.num_pulses, r.mode, r.mean_abs_error) for r in direct
        ]
