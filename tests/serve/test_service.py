"""Service-level tests: coalescing, cache hits, backpressure, model pool.

Everything here uses the bundle-free ``selftest`` scenario (plus stub
bundles for the pool tests), so no pre-training happens and the whole file
stays in the fast loop.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.experiments.runner.spec import ScenarioSpec
from repro.experiments.runner.store import ResultStore
from repro.serve import (
    DONE,
    FAILED,
    ORIGIN_CACHE,
    ORIGIN_EXECUTED,
    REJECTED,
    RUNNING,
    EvalRequest,
    EvalService,
    ModelPool,
    RequestRecord,
    RequestTable,
    ServeConfig,
)


def selftest_payload(value=1, sleep_s=0.0, **extra):
    params = {"value": value}
    if sleep_s:
        params["sleep_s"] = sleep_s
    params.update(extra)
    return {"spec": {"experiment": "selftest", "method": "probe", "params": params}}


@pytest.fixture
def service(tmp_path):
    service = EvalService(
        ServeConfig(workers=1, queue_size=8),
        store=ResultStore(str(tmp_path / "store")),
    )
    service.start()
    yield service
    service.stop()


class TestRequestParsing:
    def test_spec_and_mapping_params_hash_identically(self):
        as_pairs = EvalRequest.from_payload(
            {"spec": {"experiment": "selftest", "params": [["value", 3]]}}
        )
        as_mapping = EvalRequest.from_payload(
            {"spec": {"experiment": "selftest", "params": {"value": 3}}}
        )
        assert as_pairs.key == as_mapping.key
        assert as_mapping.spec.param("value") == 3

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            EvalRequest.from_payload({"spec": {"experiment": "nope"}})

    def test_empty_payload_rejected(self):
        with pytest.raises(ValueError, match="must carry"):
            EvalRequest.from_payload({})

    def test_facade_form_builds_concrete_api_eval_spec(self):
        request = EvalRequest.from_payload(
            {"profile": "smoke", "sim": {"mode": "noisy", "noise_sigma": 5.0}}
        )
        assert request.spec.experiment == "api_eval"
        assert request.needs_model
        # Identity must not depend on server-side residue: the attached sim
        # config is fully concrete (no keep-current Nones left).
        sim = dict(request.spec.sim)
        assert sim["engine"] is not None
        assert sim["pulses"] is not None
        assert sim["dtype"] is not None

    def test_facade_form_is_deterministic(self):
        payload = {"profile": "smoke", "sim": {"noise_sigma": 2.0}, "num_repeats": 2}
        assert (
            EvalRequest.from_payload(payload).key
            == EvalRequest.from_payload(payload).key
        )


class TestCoalescing:
    def test_k_concurrent_identical_requests_execute_once(self, service):
        payload = selftest_payload(value=7, sleep_s=0.3)
        records = []
        lock = threading.Lock()

        def submit():
            record = service.submit(payload)
            with lock:
                records.append(record)

        threads = [threading.Thread(target=submit) for _ in range(5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert all(record.wait(10.0) for record in records)
        assert {record.state for record in records} == {DONE}
        # All five submits share ONE record object — and one execution.
        assert len({id(record) for record in records}) == 1
        assert service.counters["executed"] == 1
        assert service.counters["coalesced"] == 4
        assert service.counters["submitted"] == 5
        assert records[0].result["value"] == 7

    def test_distinct_requests_do_not_coalesce(self, service):
        first = service.submit(selftest_payload(value=1))
        second = service.submit(selftest_payload(value=2))
        assert first.wait(10.0) and second.wait(10.0)
        assert first.key != second.key
        assert service.counters["executed"] == 2
        assert service.counters["coalesced"] == 0

    def test_resubmit_after_completion_joins_history(self, service):
        payload = selftest_payload(value=3)
        first = service.submit(payload)
        assert first.wait(10.0)
        again = service.submit(payload)
        # Served from the finished record: no second execution, already done.
        assert again.state == DONE
        assert service.counters["executed"] == 1

    def test_failed_request_is_retryable(self, service):
        payload = selftest_payload(value=1, fail=True)
        first = service.submit(payload)
        assert first.wait(10.0)
        assert first.state == "failed"
        assert "selftest scenario failed" in first.error
        retry = service.submit(payload)
        assert retry is not first  # fresh record, re-executed


class TestCacheHits:
    def test_cache_hit_answers_without_touching_a_model(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        payload = selftest_payload(value=9)

        warm = EvalService(ServeConfig(workers=1), store=store)
        warm.start()
        try:
            record = warm.submit(payload)
            assert record.wait(10.0)
            assert record.origin == ORIGIN_EXECUTED
        finally:
            warm.stop()

        # Fresh service, same store: answered from disk, resolved already at
        # submit time, zero models loaded, zero executions.
        fresh = EvalService(ServeConfig(workers=1), store=store)
        try:
            hit = fresh.submit(payload)
            assert hit.state == DONE  # no worker even started
            assert hit.origin == ORIGIN_CACHE
            assert hit.result["value"] == 9
            assert fresh.counters["cache_hits"] == 1
            assert fresh.counters["executed"] == 0
            assert fresh.pool.stats()["models_loaded"] == 0
        finally:
            fresh.stop()

    def test_cached_results_are_isolated_copies(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        service = EvalService(ServeConfig(workers=1), store=store)
        service.start()
        try:
            payload = selftest_payload(value=4)
            first = service.submit(payload)
            assert first.wait(10.0)
            first.result["value"] = "mutated by one client"

            fresh = EvalService(ServeConfig(workers=1), store=store)
            hit = fresh.submit(payload)
            assert hit.result["value"] == 4
            fresh.stop()
        finally:
            service.stop()


class TestBackpressure:
    def test_submits_beyond_queue_bound_are_rejected(self, tmp_path):
        service = EvalService(
            ServeConfig(workers=1, queue_size=1),
            store=ResultStore(str(tmp_path / "store")),
        )
        # Deliberately NOT started: no worker drains the queue, so the first
        # submit fills it and the second distinct request must be rejected.
        try:
            queued = service.submit(selftest_payload(value=1))
            rejected = service.submit(selftest_payload(value=2))
            assert queued.state == "queued"
            assert rejected.state == REJECTED
            assert "queue is full" in rejected.error
            assert service.counters["rejected"] == 1

            # Backpressure is per-execution, not per-client: an identical
            # request still coalesces onto the queued record instead of
            # being rejected.
            joined = service.submit(selftest_payload(value=1))
            assert joined is queued

            # Once capacity frees up, the rejected key is retryable.
            service.start()
            assert queued.wait(10.0)
            retry = service.submit(selftest_payload(value=2))
            assert retry.wait(10.0)
            assert retry.state == DONE
        finally:
            service.stop()


class TestStats:
    def test_stats_shape_and_latency_accounting(self, service):
        record = service.submit(selftest_payload(value=5, sleep_s=0.05))
        assert record.wait(10.0)
        stats = service.stats()
        assert stats["counters"]["executed"] == 1
        assert stats["pool"]["models_loaded"] == 0
        executed = stats["latency"][ORIGIN_EXECUTED]
        assert executed["count"] == 1
        assert executed["mean_s"] >= 0.05
        assert stats["latency"][ORIGIN_CACHE]["count"] == 0

    @pytest.mark.parametrize("fail", [False, True], ids=["done", "failed"])
    def test_stats_count_a_request_before_its_waiters_wake(self, service, fail):
        """A done-callback runs as the record wakes its waiters; the stats it
        reads must already count the request, as a client that just got its
        answer would."""
        record = service.submit(selftest_payload(value=8, sleep_s=0.3, fail=fail))
        seen = []
        record.add_done_callback(lambda: seen.append(service.stats()))
        assert record.wait(10.0)
        (stats,) = seen
        counters = stats["counters"]
        if fail:
            assert counters["failed"] == 1 and counters["executed"] == 0
        else:
            assert counters["executed"] == 1
            assert sum(stats["workers"]["executed_per_worker"].values()) == 1
            assert stats["latency"][ORIGIN_EXECUTED]["count"] == 1

    def test_gc_protects_live_request_results(self, service):
        record = service.submit(selftest_payload(value=6))
        assert record.wait(10.0)
        # selftest specs are not part of any registered grid; only the live
        # request table keeps them alive.
        report = service.gc(dry_run=True)
        assert report["pruned"] == 0
        assert report["kept"] == 1


class _StubBundle:
    def __init__(self, profile):
        self.profile = profile


class TestModelPool:
    def _spec(self, profile_name):
        return ScenarioSpec.create("table1", method="Baseline", profile=profile_name)

    def test_lru_eviction_bounds_resident_models(self):
        built = []

        def builder(profile):
            built.append(profile.name)
            return _StubBundle(profile)

        pool = ModelPool(max_models=1, builder=builder)
        spec_smoke = self._spec("smoke")
        spec_fast = self._spec("fast")

        first = pool.bundle_for(spec_smoke)
        assert pool.bundle_for(spec_smoke) is first  # hit, no rebuild
        assert built == ["smoke"]

        pool.bundle_for(spec_fast)  # evicts smoke (LRU bound is 1)
        assert len(pool) == 1
        assert pool.stats()["model_evictions"] == 1

        pool.bundle_for(spec_smoke)  # rebuild after eviction
        assert built == ["smoke", "fast", "smoke"]
        assert pool.stats() == {
            "models_loaded": 3,
            "model_hits": 1,
            "model_evictions": 2,
            "models_resident": 1,
        }

    def test_eviction_also_drops_context_bundle_cache(self):
        from repro.context import current_context
        from repro.experiments import common

        bundles = current_context().bundles

        def builder(profile):
            bundle = _StubBundle(profile)
            # Mirror get_pretrained_bundle's memoisation so the test proves
            # pool eviction actually releases it from the execution context.
            bundles[common.profile_token(profile)] = bundle
            return bundle

        pool = ModelPool(max_models=1, builder=builder)
        try:
            pool.bundle_for(self._spec("smoke"))
            smoke_token = pool.tokens()[0]
            assert smoke_token in bundles
            pool.bundle_for(self._spec("fast"))
            assert smoke_token not in bundles
        finally:
            pool.clear()

    def test_max_models_must_be_positive(self):
        with pytest.raises(ValueError, match="max_models"):
            ModelPool(max_models=0)


@pytest.mark.slow
class TestApiEvalEndToEnd:
    """The facade evaluation path with a real (smoke-profile) model."""

    def test_api_eval_served_deterministically(self, tmp_path, monkeypatch):
        from repro.experiments.common import clear_bundle_cache
        from repro.tensor.dtype import compute_dtype_name

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        clear_bundle_cache()
        service = EvalService(
            ServeConfig(workers=1),
            store=ResultStore(str(tmp_path / "cache" / "runner")),
        )
        service.start()
        try:
            payload = {
                "profile": "smoke",
                "sim": {"mode": "noisy", "noise_sigma": 5.0},
                "num_repeats": 2,
            }
            first = service.submit(payload)
            assert first.wait(300.0)
            assert first.state == DONE, first.error
            result = first.result
            assert result["num_repeats"] == 2
            assert len(result["per_repeat"]) == 2
            assert 0.0 <= result["accuracy"] <= 100.0
            assert service.pool.stats()["models_loaded"] == 1
            # The simulation ran at the spec's concrete dtype; the engine
            # must leave the process policy as it found it.
            assert compute_dtype_name() == "float64"

            # Identical request: answered from history/store, no re-run and
            # no second model load — and byte-identical numbers.
            again = service.submit(payload)
            assert again.state == DONE
            assert again.result == result
            assert service.counters["executed"] == 1
            assert service.pool.stats()["models_loaded"] == 1
        finally:
            service.stop()
            clear_bundle_cache()


class TestWorkerCrashRecovery:
    """A worker process dying mid-request fails that request, not the server.

    The engine drops the broken spawn pool, so the next request runs on a
    freshly spawned one instead of failing forever.
    """

    @staticmethod
    def _wait_for_state(record, state, timeout_s=30.0):
        deadline = time.monotonic() + timeout_s
        while record.state != state and time.monotonic() < deadline:
            time.sleep(0.02)
        return record.state == state

    def test_killed_worker_fails_its_request_and_pool_respawns(self, tmp_path):
        import os
        import signal

        service = EvalService(
            ServeConfig(workers=2), store=ResultStore(str(tmp_path / "s"))
        )
        service.start()
        try:
            # Spawn the pool before the request that gets its worker killed.
            warm = service.submit(selftest_payload(value=0))
            assert warm.wait(60.0) and warm.state == DONE
            broken_pool = service.engine._executor
            old_pids = set(broken_pool._processes)
            assert len(old_pids) == 2

            victim = service.submit(selftest_payload(value=1, sleep_s=30.0))
            assert self._wait_for_state(victim, RUNNING)
            time.sleep(0.5)  # let the worker pick the task up
            os.kill(next(iter(old_pids)), signal.SIGKILL)

            assert victim.wait(30.0)
            assert victim.state == FAILED
            assert "BrokenProcessPool" in victim.error
            assert service.counters["failed"] == 1

            after = service.submit(selftest_payload(value=2))
            assert after.wait(60.0)
            assert after.state == DONE, after.error
            assert after.result["value"] == 2
            fresh_pool = service.engine._executor
            assert fresh_pool is not None and fresh_pool is not broken_pool
            assert not old_pids & set(fresh_pool._processes)
        finally:
            service.stop()


class TestRequestTable:
    def test_history_eviction_keeps_in_flight_records(self):
        table = RequestTable(max_history=2)
        requests = [
            EvalRequest.from_payload(selftest_payload(value=index))
            for index in range(4)
        ]
        in_flight, _ = table.join_or_create(requests[0])  # stays queued
        for request in requests[1:]:
            record, _ = table.join_or_create(request)
            record.resolve({"value": 0}, origin=ORIGIN_EXECUTED)
        # Finished overflow evicted oldest-first; the in-flight record is
        # never evicted even though it is the oldest entry.
        assert table.get(in_flight.key) is in_flight
        assert len(table) == 2


class TestRequestRecordCallbacks:
    def test_each_callback_runs_once_when_added_while_the_record_resolves(self):
        """A done-callback added concurrently with ``resolve`` runs exactly
        once: on the resolving thread, or at once on the adding thread."""
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(200):
                record = RequestRecord(EvalRequest.from_payload(selftest_payload(value=trial)))
                calls = []
                start = threading.Barrier(5)

                def add(tag):
                    start.wait(timeout=10.0)
                    for index in range(25):
                        record.add_done_callback(lambda key=(tag, index): calls.append(key))

                adders = [threading.Thread(target=add, args=(tag,)) for tag in range(4)]
                for adder in adders:
                    adder.start()
                start.wait(timeout=10.0)
                record.resolve({"value": trial}, origin=ORIGIN_EXECUTED)
                for adder in adders:
                    adder.join(timeout=10.0)
                assert not any(adder.is_alive() for adder in adders)
                assert sorted(calls) == [(tag, index) for tag in range(4) for index in range(25)]
        finally:
            sys.setswitchinterval(previous)

    def test_a_removed_callback_never_runs(self):
        record = RequestRecord(EvalRequest.from_payload(selftest_payload(value=1)))
        calls = []
        kept, dropped = (lambda: calls.append("kept")), (lambda: calls.append("dropped"))
        record.add_done_callback(kept)
        record.add_done_callback(dropped)
        record.remove_done_callback(dropped)
        record.fail("boom")
        assert calls == ["kept"]
        record.add_done_callback(dropped)  # already finished: runs at once
        assert calls == ["kept", "dropped"]
