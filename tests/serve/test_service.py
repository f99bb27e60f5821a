"""Service-level tests: coalescing, cache hits, backpressure, worker bundles.

Everything here uses the bundle-free ``selftest`` scenario (plus stub
bundles for the bundle-cache tests, and the seconds-fast smoke profile for
one worker process's bound), so the whole file stays in the fast loop.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.experiments.runner.executor import BundleCache, execute_spec, spawn_worker_pool
from repro.experiments.runner.spec import ScenarioSpec
from repro.experiments.runner.store import ResultStore
from repro.serve.request import LATENCY_WINDOW
from repro.serve import (
    DONE,
    LatencyStat,
    FAILED,
    ORIGIN_CACHE,
    ORIGIN_EXECUTED,
    REJECTED,
    RUNNING,
    EvalRequest,
    EvalService,
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
            assert fresh.engine is None  # no worker process exists
        finally:
            fresh.stop()

    def test_the_worker_stores_the_result_before_the_reply(self, tmp_path, monkeypatch):
        """When a request's reply arrives its result is already in the
        store, written by the worker process: the service never writes one
        (its ``ResultStore.put`` raises here; the spawned worker's does not)."""

        def refuse(self, spec, result):
            raise AssertionError("the serve parent wrote a result")

        store = ResultStore(str(tmp_path / "store"))
        monkeypatch.setattr(ResultStore, "put", refuse)
        service = EvalService(ServeConfig(workers=1), store=store)
        service.start()
        try:
            record = service.submit(selftest_payload(value=5))
            assert record.wait(10.0)
            assert (record.state, record.origin) == (DONE, ORIGIN_EXECUTED)
            assert store.get(record.request.spec) == record.result
        finally:
            service.stop()

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
        assert stats["workers"] == {
            "count": 1, "configured": 1, "executed_per_worker": {"repro-serve-0": 1}
        }
        executed = stats["latency"][ORIGIN_EXECUTED]
        assert executed["count"] == 1
        assert executed["mean_s"] >= 0.05
        assert executed["p50_s"] == executed["p99_s"] == executed["max_s"]
        assert stats["latency"][ORIGIN_CACHE]["count"] == 0

    def test_latency_percentiles_of_known_latencies(self):
        stat = LatencyStat()
        assert stat.as_dict() == {
            "count": 0, "mean_s": 0.0, "max_s": 0.0, "p50_s": 0.0, "p95_s": 0.0, "p99_s": 0.0
        }
        for ms in range(100, 0, -1):  # 100 ms down to 1 ms
            stat.record(ms / 1000)
        stats = stat.as_dict()
        assert stats["count"] == 100 and stats["max_s"] == 0.1
        assert stats["mean_s"] == pytest.approx(0.0505)
        # Nearest rank: the p-th percentile of 1..100 ms is p ms.
        assert (stats["p50_s"], stats["p95_s"], stats["p99_s"]) == (0.05, 0.095, 0.099)

    def test_latency_percentiles_cover_the_latest_window(self):
        stat = LatencyStat()
        for _ in range(LATENCY_WINDOW):
            stat.record(1.0)
        for _ in range(LATENCY_WINDOW // 2 + 1):
            stat.record(0.001)
        stats = stat.as_dict()
        # Count, mean and max cover every latency; the percentiles only the
        # window, whose latest half-plus-one are the fast requests.
        assert stats["count"] == LATENCY_WINDOW * 3 // 2 + 1
        assert stats["max_s"] == 1.0
        assert stats["p50_s"] == 0.001 and stats["p95_s"] == 1.0

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


def _resident_bundles(state):
    """Worker call: how many bundles the worker's cache and its execution
    context hold."""
    from repro.context import current_context

    return len(state.bundles), len(current_context().bundles)


class TestWorkerBundleCache:
    """The LRU bound ``--max-models`` puts on each worker process's bundles."""

    def _spec(self, profile_name, **overrides):
        return ScenarioSpec.create(
            "table1", method="Baseline", profile=profile_name, sigma=4.0, pulses=8,
            overrides=overrides,
        )

    def test_lru_eviction_releases_the_bundle(self):
        from repro.context import ExecutionContext, use_context
        from repro.experiments import common

        built = []

        def builder(profile):
            built.append(profile.name)
            bundle = _StubBundle(profile)
            # Memoise as get_pretrained_bundle does, so the test proves
            # eviction releases the bundle from the execution context too.
            common._bundle_cache()[common.profile_token(profile)] = bundle
            return bundle

        with use_context(ExecutionContext()) as context:
            cache = BundleCache(max_models=1, builder=builder)
            smoke = cache.bundle_for(self._spec("smoke"))
            smoke_token = common.profile_token(smoke.profile)
            assert list(context.bundles) == [smoke_token]
            fast = cache.bundle_for(self._spec("fast"))  # evicts smoke
            assert len(cache) == 1
            assert list(context.bundles) == [common.profile_token(fast.profile)]
            cache.bundle_for(self._spec("smoke"))  # rebuilt after eviction
        assert built == ["smoke", "fast", "smoke"]

    def test_hits_do_not_rebuild(self):
        built = []

        def builder(profile):
            built.append(profile.name)
            return _StubBundle(profile)

        cache = BundleCache(max_models=2, builder=builder)
        first = cache.bundle_for(self._spec("smoke"))
        cache.bundle_for(self._spec("fast"))
        assert cache.bundle_for(self._spec("smoke")) is first
        # The hit made smoke the most recently used: a third profile evicts fast.
        cache.bundle_for(self._spec("smoke", seed=1))
        assert cache.bundle_for(self._spec("smoke")) is first
        assert built == ["smoke", "fast", "smoke"]
        assert cache.bundle_for(ScenarioSpec.create("selftest", value=1)) is None

    def test_max_models_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="max_models"):
            BundleCache(max_models=0)
        service = EvalService(ServeConfig(max_models=0), store=ResultStore(str(tmp_path)))
        with pytest.raises(ValueError, match="max_models"):
            service.start()

    def test_a_worker_with_max_models_1_holds_one_bundle_after_two_profiles(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        (worker,) = spawn_worker_pool(1, max_models=1)
        try:
            for spec in (self._spec("smoke"), self._spec("smoke", seed=1)):
                assert 0.0 <= worker.call(execute_spec, spec.as_dict())["accuracy"] <= 100.0
            assert worker.call(_resident_bundles) == (1, 1)
        finally:
            worker.stop()


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
            # The simulation ran in the worker process, at the spec's
            # concrete dtype; the server's own policy is untouched, and the
            # server holds no model of its own.
            assert compute_dtype_name() == "float64"
            from repro.context import current_context

            assert current_context().bundles == {}
            (worker,) = service.engine._slots
            assert worker.call(_resident_bundles) == (1, 1)

            # Identical request: answered from history/store, no re-run and
            # no second model load — and byte-identical numbers.
            again = service.submit(payload)
            assert again.state == DONE
            assert again.result == result
            assert service.counters["executed"] == 1
            assert worker.call(_resident_bundles) == (1, 1)
        finally:
            service.stop()
            clear_bundle_cache()


class TestWorkerCrashRecovery:
    """A worker process dying mid-request fails that request, not the server.

    Queue thread ``i`` owns worker process ``i``: the killed process fails
    only the request it was running, its sibling finishes its own, and the
    next request is served (the thread spawns a new process when it needs
    one).
    """

    @staticmethod
    def _wait_for_state(record, state, timeout_s=30.0):
        deadline = time.monotonic() + timeout_s
        while record.state != state and time.monotonic() < deadline:
            time.sleep(0.02)
        return record.state == state

    def test_killed_worker_fails_only_its_own_request(self, tmp_path):
        import os
        import signal

        service = EvalService(
            ServeConfig(workers=2), store=ResultStore(str(tmp_path / "s"))
        )
        service.start()
        try:
            victim = service.submit(selftest_payload(value=1, sleep_s=30.0))
            assert self._wait_for_state(victim, RUNNING)
            # Processes are spawned per thread on demand, just after the
            # record starts running: the only one so far runs the victim.
            deadline = time.monotonic() + 30.0
            pids = []
            while not pids and time.monotonic() < deadline:
                pids = [w.process.pid for w in service.engine._slots if w is not None]
                time.sleep(0.02)
            (victim_pid,) = pids
            sibling = service.submit(selftest_payload(value=2, sleep_s=2.0))
            assert self._wait_for_state(sibling, RUNNING)
            time.sleep(0.5)  # let the sibling's process pick its call up
            os.kill(victim_pid, signal.SIGKILL)

            assert victim.wait(30.0)
            assert victim.state == FAILED
            assert f"worker process {victim_pid} died" in victim.error
            assert sibling.wait(30.0)
            assert sibling.state == DONE, sibling.error
            assert sibling.result["value"] == 2
            assert service.counters["failed"] == 1

            # Two overlapping requests: each thread takes one, so the
            # victim's thread spawns a new process.
            after = [service.submit(selftest_payload(value=v, sleep_s=0.5)) for v in (3, 4)]
            for record, value in zip(after, (3, 4)):
                assert record.wait(60.0)
                assert record.state == DONE, record.error
                assert record.result["value"] == value
            live = [w.process.pid for w in service.engine._slots if w is not None]
            assert victim_pid not in live
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
