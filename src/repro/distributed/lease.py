"""Lease files: the coordination primitive of the distributed executor.

A *lease* is a tiny JSON file living next to a scenario's store entry
(``<store-root>/leases/<spec-hash>.json``) that marks the scenario as
in-flight.  The whole protocol rests on two POSIX guarantees that hold on
local filesystems and on the network filesystems a multi-host store
directory would be shared through (NFSv3+ with standard semantics):

``O_CREAT | O_EXCL`` is atomic
    Creating the lease file exclusively *is* the claim.  Of N workers
    racing to claim one scenario, exactly one ``os.open`` succeeds; the
    rest move on to other scenarios.

``rename`` is atomic
    Stealing an expired lease goes through a rename to a stealer-unique
    name.  Of N workers seeing the same expired lease, exactly one rename
    succeeds — that worker deletes the stale file and re-enters the
    ordinary O_EXCL claim race (which it may still lose, harmlessly).

Liveness is a heartbeat on the lease's mtime: the owning worker touches
the file periodically (:class:`Heartbeat`); a lease whose mtime is older
than its recorded TTL belongs to a crashed or SIGKILLed worker and is
reclaimable.  Correctness never depends on exclusivity, only progress
does: scenario results are pure functions of their spec (hash-derived
seeds) and store writes are atomic, so in the worst clock-skew case two
workers execute the same scenario and write semantically identical
results — wasted work, never a wrong store.

This module deliberately imports nothing from the rest of the package so
low-level store code (:meth:`ResultStore.gc`) can use it without cycles.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import uuid
from typing import Any, Dict, List, Optional, Sequence, Union

#: Subdirectory of a result-store root that holds the lease files.
LEASE_DIRNAME = "leases"

#: Suffix of a failure marker beside a lease (``<spec-hash>.failed``).
FAILURE_SUFFIX = ".failed"

#: Default lease TTL: a worker missing heartbeats for this long is presumed
#: dead and its claims become stealable.  Generous relative to the default
#: heartbeat interval (TTL/4) so one slow NFS round-trip cannot trigger a
#: spurious steal.
DEFAULT_TTL_S = 60.0


def default_owner() -> str:
    """A process-unique owner identity (host, pid, random tail).

    The random tail keeps identities unique across pid reuse — a recycled
    pid on the same host must not look like the previous worker's ghost.
    """
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:8]}"


class LeaseManager:
    """Claim / heartbeat / release / steal over one store's lease directory.

    Parameters
    ----------
    root:
        The result-store root directory (leases live in
        ``<root>/leases/``).
    owner:
        This worker's identity; defaults to :func:`default_owner`.
    ttl:
        Seconds after the last heartbeat at which *this manager's* claims
        expire.  Each lease file records the TTL it was claimed under, and
        expiry checks honour the recorded value, so workers with different
        TTLs interoperate.
    """

    def __init__(self, root: str, owner: Optional[str] = None, ttl: float = DEFAULT_TTL_S):
        self.root = root
        self.owner = owner or default_owner()
        self.ttl = float(ttl)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @property
    def lease_dir(self) -> str:
        return os.path.join(self.root, LEASE_DIRNAME)

    def lease_path(self, spec_hash: str) -> str:
        return os.path.join(self.lease_dir, f"{spec_hash}.json")

    # ------------------------------------------------------------------
    # Claim / steal
    # ------------------------------------------------------------------
    def acquire(self, spec_hash: str, **extra: Any) -> bool:
        """Try to claim a scenario; ``True`` means this worker owns it now.

        One O_EXCL attempt, and — if an *expired* lease is in the way — one
        steal followed by a second O_EXCL attempt.  Losing either race
        returns ``False``; the scenario is someone else's.
        """
        path = self.lease_path(spec_hash)
        os.makedirs(self.lease_dir, exist_ok=True)
        for attempt in range(2):
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if attempt == 0 and self._steal_expired(path):
                    continue
                return False
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(
                    {
                        "owner": self.owner,
                        "host": socket.gethostname(),
                        "pid": os.getpid(),
                        "spec_hash": spec_hash,
                        "ttl": self.ttl,
                        "created": time.time(),
                        **extra,
                    },
                    handle,
                )
            return True
        return False

    def _steal_expired(self, path: str) -> bool:
        """Clear ``path`` if its lease has expired; ``True`` = retry the claim.

        The rename-to-unique-name makes the steal single-winner: a loser's
        rename raises (source gone) and it simply retries the O_EXCL claim,
        where the winner — or a third worker — may already have a fresh
        lease.
        """
        expiry = self._expiry(path)
        if expiry is None:
            return True  # released meanwhile: the claim retry decides
        if not expiry:
            return False  # live lease, someone is working on it
        stale = f"{path}.stale-{self.owner}"
        try:
            os.rename(path, stale)
        except OSError:
            return True  # another stealer won; retry the claim race
        try:
            os.unlink(stale)
        except OSError:
            pass
        return True

    def _expiry(self, path: str) -> Optional[bool]:
        """``True`` = expired, ``False`` = live, ``None`` = file is gone."""
        try:
            mtime = os.stat(path).st_mtime
        except OSError:
            return None
        ttl = self.ttl
        payload = self._read(path)
        if payload is not None and isinstance(payload.get("ttl"), (int, float)):
            ttl = float(payload["ttl"])
        return (time.time() - mtime) > ttl

    @staticmethod
    def _read(path: str) -> Optional[Dict[str, Any]]:
        """The lease payload, or ``None`` while it is mid-write/corrupt.

        Lease files are written *after* the O_EXCL create, so a reader can
        observe an empty or partial file; expiry then falls back to the
        reader's own TTL, which is the conservative choice (a fresh mtime
        keeps the lease live either way).
        """
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    # ------------------------------------------------------------------
    # Heartbeat / release
    # ------------------------------------------------------------------
    def heartbeat(self, spec_hash: str) -> bool:
        """Refresh the mtime of a lease this worker owns.

        Returns ``False`` (without touching anything) when the lease is
        gone or owned by someone else — i.e. this worker was presumed dead
        and its claim was stolen; the caller keeps executing (results are
        deterministic, the duplicate write is harmless) but stops
        heartbeating a file that is no longer its own.
        """
        path = self.lease_path(spec_hash)
        payload = self._read(path)
        if payload is None or payload.get("owner") != self.owner:
            return False
        try:
            os.utime(path)
        except OSError:
            return False
        return True

    def release(self, spec_hash: str) -> bool:
        """Drop this worker's claim; ``True`` when a lease we owned was removed.

        Only a lease recording this manager's owner id is unlinked —
        releasing after a steal must not destroy the stealer's fresh lease.
        """
        path = self.lease_path(spec_hash)
        payload = self._read(path)
        if payload is not None and payload.get("owner") != self.owner:
            return False
        try:
            os.unlink(path)
        except OSError:
            return False
        return True

    # ------------------------------------------------------------------
    # Failure markers
    # ------------------------------------------------------------------
    def failure_path(self, spec_hash: str) -> str:
        return os.path.join(self.lease_dir, f"{spec_hash}{FAILURE_SUFFIX}")

    def mark_failed(self, spec_hash: str, run: str, message: str) -> None:
        """Record, beside the lease, that the scenario failed in ``run``.

        Every worker of the same run skips a marked scenario (see
        :meth:`failure`), so a failing scenario is tried once per run, not
        once per worker.  Written atomically (temporary file, then rename).
        """
        os.makedirs(self.lease_dir, exist_ok=True)
        path = self.failure_path(spec_hash)
        scratch = f"{path}.tmp-{self.owner}"
        with open(scratch, "w", encoding="utf-8") as handle:
            json.dump({"run": run, "owner": self.owner, "message": message}, handle)
        os.replace(scratch, path)

    def failure(self, spec_hash: str, run: str) -> Optional[Dict[str, Any]]:
        """The failure marker of the scenario in ``run`` (``message`` and
        ``owner``), or ``None``; a marker of another run does not count."""
        payload = self._read(self.failure_path(spec_hash))
        if payload is None or payload.get("run") != run:
            return None
        return payload

    def clear_failures(self, run: str) -> None:
        """Remove the failure markers ``run`` left."""
        if not os.path.isdir(self.lease_dir):
            return
        for entry in os.listdir(self.lease_dir):
            spec_hash = entry[: -len(FAILURE_SUFFIX)]
            if entry.endswith(FAILURE_SUFFIX) and self.failure(spec_hash, run) is not None:
                try:
                    os.unlink(self.failure_path(spec_hash))
                except OSError:
                    pass

    # ------------------------------------------------------------------
    # Introspection (used by gc, status banners and tests)
    # ------------------------------------------------------------------
    def owner_of(self, spec_hash: str) -> Optional[str]:
        payload = self._read(self.lease_path(spec_hash))
        return None if payload is None else payload.get("owner")

    def is_live(self, spec_hash: str) -> bool:
        return self._expiry(self.lease_path(spec_hash)) is False

    def live_hashes(self) -> List[str]:
        """Spec hashes with an unexpired lease (the in-flight set)."""
        if not os.path.isdir(self.lease_dir):
            return []
        live = []
        for entry in sorted(os.listdir(self.lease_dir)):
            if not entry.endswith(".json"):
                continue
            path = os.path.join(self.lease_dir, entry)
            if self._expiry(path) is False:
                live.append(entry[: -len(".json")])
        return live


class Heartbeat:
    """Context manager keeping claims' leases fresh from one daemon thread.

    ``spec_hashes`` is one hash or a sequence of them (a stacked claim
    beats every member's lease for the whole stack).  The interval defaults
    to a quarter of the manager's TTL so three consecutive missed beats
    still leave a lease live.  Exiting stops the thread; it does *not*
    release the leases (the worker does that after the results are safely
    in the store).
    """

    def __init__(
        self, manager: LeaseManager, spec_hashes: Union[str, Sequence[str]],
        interval: Optional[float] = None,
    ):
        self.manager = manager
        self.spec_hashes = [spec_hashes] if isinstance(spec_hashes, str) else list(spec_hashes)
        self.interval = float(interval) if interval is not None else manager.ttl / 4.0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _run(self) -> None:
        beating = list(self.spec_hashes)
        while beating and not self._stop.wait(self.interval):
            # A lease stolen or gone has nothing left to keep alive.
            beating = [spec_hash for spec_hash in beating if self.manager.heartbeat(spec_hash)]

    def __enter__(self) -> "Heartbeat":
        self._thread = threading.Thread(
            target=self._run,
            name=f"lease-heartbeat-{self.spec_hashes[0][:8]}",
            daemon=True,  # a SIGKILLed worker must not be kept alive by us
        )
        self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
