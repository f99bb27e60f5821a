"""Tests for the lease protocol: claim, heartbeat, expiry, steal, release.

The invariants under test are the ones the distributed executor rests on:
at most one *live* claim per scenario, expired claims are stealable by
exactly one winner, and a worker can only release/heartbeat its own lease.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.distributed.lease import Heartbeat, LeaseManager, default_owner


@pytest.fixture
def root(tmp_path):
    return str(tmp_path / "store")


class TestClaim:
    def test_first_claim_wins(self, root):
        a = LeaseManager(root, owner="a")
        b = LeaseManager(root, owner="b")
        assert a.acquire("h1")
        assert not b.acquire("h1")
        assert a.owner_of("h1") == "a"

    def test_claim_creates_lease_file_with_payload(self, root):
        manager = LeaseManager(root, owner="me", ttl=12.5)
        assert manager.acquire("h1", label="table1 Baseline")
        path = manager.lease_path("h1")
        assert os.path.exists(path)
        import json

        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["owner"] == "me"
        assert payload["ttl"] == 12.5
        assert payload["label"] == "table1 Baseline"

    def test_released_scenario_is_claimable_again(self, root):
        a = LeaseManager(root, owner="a")
        b = LeaseManager(root, owner="b")
        assert a.acquire("h1")
        assert a.release("h1")
        assert b.acquire("h1")

    def test_distinct_hashes_are_independent(self, root):
        a = LeaseManager(root, owner="a")
        b = LeaseManager(root, owner="b")
        assert a.acquire("h1")
        assert b.acquire("h2")


class TestExpiryAndSteal:
    def test_live_lease_is_not_stealable(self, root):
        a = LeaseManager(root, owner="a", ttl=60.0)
        b = LeaseManager(root, owner="b", ttl=60.0)
        assert a.acquire("h1")
        assert not b.acquire("h1")
        assert a.is_live("h1")

    def test_expired_lease_is_stolen(self, root):
        a = LeaseManager(root, owner="a", ttl=0.1)
        b = LeaseManager(root, owner="b", ttl=0.1)
        assert a.acquire("h1")
        time.sleep(0.25)
        assert not a.is_live("h1")
        assert b.acquire("h1")
        assert b.owner_of("h1") == "b"

    def test_expiry_honours_recorded_ttl_not_readers(self, root):
        # The claimer recorded a long TTL; a reader with a short TTL must
        # still consider the lease live (workers with different TTLs
        # interoperate via the TTL recorded in the file).
        a = LeaseManager(root, owner="a", ttl=60.0)
        b = LeaseManager(root, owner="b", ttl=0.01)
        assert a.acquire("h1")
        time.sleep(0.05)
        assert not b.acquire("h1")
        assert b.is_live("h1")

    @pytest.mark.parametrize("claims", ["h1", ["h1", "h2", "h3"]], ids=["one", "stack"])
    def test_heartbeat_keeps_lease_alive_past_ttl(self, root, claims):
        a = LeaseManager(root, owner="a", ttl=0.4)
        b = LeaseManager(root, owner="b", ttl=0.4)
        hashes = [claims] if isinstance(claims, str) else claims
        assert all(a.acquire(spec_hash) for spec_hash in hashes)
        with Heartbeat(a, claims, interval=0.05):
            time.sleep(0.6)  # > ttl, but heartbeats refresh the mtime
            assert not any(b.acquire(spec_hash) for spec_hash in hashes)
        assert all(a.owner_of(spec_hash) == "a" for spec_hash in hashes)

    def test_backdated_mtime_expires_immediately(self, root):
        # The crash simulation the worker tests build on: a lease whose
        # mtime is old is a dead worker, no waiting required.
        a = LeaseManager(root, owner="dead", ttl=30.0)
        b = LeaseManager(root, owner="b", ttl=30.0)
        assert a.acquire("h1")
        stale = time.time() - 3600
        os.utime(a.lease_path("h1"), (stale, stale))
        assert b.acquire("h1")
        assert b.owner_of("h1") == "b"

    def test_exactly_one_stealer_wins(self, root):
        a = LeaseManager(root, owner="dead", ttl=30.0)
        assert a.acquire("h1")
        stale = time.time() - 3600
        os.utime(a.lease_path("h1"), (stale, stale))
        stealers = [LeaseManager(root, owner=f"s{i}", ttl=30.0) for i in range(4)]
        wins = [manager.acquire("h1") for manager in stealers]
        assert sum(wins) == 1


class TestOwnership:
    def test_release_of_foreign_lease_is_refused(self, root):
        a = LeaseManager(root, owner="a")
        b = LeaseManager(root, owner="b")
        assert a.acquire("h1")
        assert not b.release("h1")
        assert a.owner_of("h1") == "a"

    def test_heartbeat_of_foreign_lease_is_refused(self, root):
        a = LeaseManager(root, owner="a")
        b = LeaseManager(root, owner="b")
        assert a.acquire("h1")
        assert not b.heartbeat("h1")
        assert a.heartbeat("h1")

    def test_heartbeat_of_missing_lease_is_refused(self, root):
        a = LeaseManager(root, owner="a")
        assert not a.heartbeat("never-claimed")


class TestIntrospection:
    def test_live_hashes_lists_only_unexpired(self, root):
        a = LeaseManager(root, owner="a", ttl=30.0)
        assert a.acquire("live1")
        assert a.acquire("live2")
        assert a.acquire("dead1")
        stale = time.time() - 3600
        os.utime(a.lease_path("dead1"), (stale, stale))
        assert a.live_hashes() == ["live1", "live2"]

    def test_live_hashes_of_empty_store(self, root):
        assert LeaseManager(root).live_hashes() == []

    def test_partial_lease_file_counts_as_live_while_fresh(self, root):
        # Claim-then-write means a reader can see an empty/truncated file;
        # the conservative call is "live" while the mtime is fresh.
        manager = LeaseManager(root, owner="a", ttl=30.0)
        os.makedirs(manager.lease_dir, exist_ok=True)
        with open(manager.lease_path("h1"), "w", encoding="utf-8") as handle:
            handle.write('{"owner": "a", "tt')  # truncated mid-write
        assert manager.is_live("h1")
        assert "h1" in manager.live_hashes()

    def test_failure_marker_counts_only_in_its_run(self, root):
        a = LeaseManager(root, owner="a")
        b = LeaseManager(root, owner="b")
        assert a.failure("h1", "run-1") is None
        a.mark_failed("h1", "run-1", "RuntimeError: boom")
        a.mark_failed("h2", "run-2", "RuntimeError: other")
        assert b.failure("h1", "run-1") == {
            "run": "run-1", "owner": "a", "message": "RuntimeError: boom"
        }
        assert b.failure("h1", "run-2") is None
        assert b.live_hashes() == []  # a marker is no claim
        assert b.acquire("h1")
        b.clear_failures("run-1")
        assert a.failure("h1", "run-1") is None
        assert a.failure("h2", "run-2") is not None
        assert sorted(os.listdir(a.lease_dir)) == ["h1.json", "h2.failed"]

    def test_default_owner_is_process_unique(self):
        assert default_owner() != default_owner()
