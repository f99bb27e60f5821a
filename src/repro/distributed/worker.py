"""Coordinator-less grid workers: lease-claimed, shard-affine, work-stealing.

Any number of :class:`GridWorker` processes — ``run_grid(workers=N)``'s
pool, or hosts sharing a synced store directory — can be pointed at the same
:class:`~repro.experiments.runner.spec.ScenarioGrid` and the same
:class:`~repro.experiments.runner.store.ResultStore`, with no coordinator:

* a scenario is *done* when its result is in the store, *in flight* when a
  live lease file exists next to it (see :mod:`repro.distributed.lease`),
  and *available* otherwise;
* each worker walks the grid in a deterministic order — the scenarios of
  its own shard (:func:`shard_of` over the spec hash) first, everyone
  else's after — claiming available scenarios via atomic lease creation
  and executing them through the runner's shared execution core;
* when only other workers' live leases remain, the worker polls: either
  the owners finish (results appear, leases vanish) or they crash (leases
  expire) and the poller *steals* the scenarios.  Stragglers therefore
  never stall a suite, and a SIGKILLed worker's claims are re-executed.

Results are bit-identical to a serial :func:`~repro...executor.run_grid`
run no matter how many workers participate, which worker executes what, or
how many crashes occur mid-suite: every scenario reseeds from its spec
hash, so *what* runs determines the result and *who/when* cannot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.distributed.lease import DEFAULT_TTL_S, Heartbeat, LeaseManager
from repro.experiments.runner.executor import GridExecutionError, execute_pending, restore_bundles
from repro.experiments.runner.spec import ScenarioGrid, ScenarioSpec
from repro.experiments.runner.store import ResultStore
from repro.utils.logging import get_logger

LOGGER = get_logger("repro.distributed")

#: Lease TTL and poll interval of the drains behind ``run_grid(workers > 1)``:
#: a resumed run steals a killed run's claims after 5 s, not the 60 s default.
LOCAL_LEASE_TTL_S = 5.0
LOCAL_POLL_S = 0.05


def shard_of(spec_hash: str, num_shards: int) -> int:
    """Deterministic shard index of a spec hash (hex digest -> 0..N-1).

    A pure function of the scenario's content hash, so every worker — with
    no communication — agrees on which shard every scenario belongs to.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    return int(spec_hash, 16) % num_shards


def worker_order(
    specs: Sequence[ScenarioSpec],
    shard_index: Optional[int] = None,
    num_shards: Optional[int] = None,
) -> List[ScenarioSpec]:
    """The order one worker visits a grid: own shard first, then stealing.

    With a shard assignment, the worker's affine scenarios come first (the
    fast path: N equal workers visit disjoint prefixes and barely contend
    on leases), followed by every other shard's scenarios (the stealing
    path: whatever the affine owners have not finished or claimed).  Both
    halves are hash-ordered so all workers agree on the sequence within a
    shard.  Without a shard assignment all scenarios are one hash-ordered
    stealing pool.
    """
    if (shard_index is None) != (num_shards is None):
        raise ValueError("shard_index and num_shards must be given together")
    ordered = sorted(specs, key=lambda spec: spec.hash)
    if shard_index is None:
        return ordered
    if not 0 <= shard_index < num_shards:
        raise ValueError(f"shard_index {shard_index} outside 0..{num_shards - 1}")
    mine = [spec for spec in ordered if shard_of(spec.hash, num_shards) == shard_index]
    theirs = [spec for spec in ordered if shard_of(spec.hash, num_shards) != shard_index]
    return mine + theirs


@dataclass
class WorkReport:
    """What one :meth:`GridWorker.drain` call did."""

    owner: str
    seconds: Dict[str, float] = field(default_factory=dict)  # hash run here -> seconds
    stolen: List[str] = field(default_factory=list)  # executed hashes outside our shard
    reclaimed: List[str] = field(default_factory=list)  # claims taken from expired leases
    cached: int = 0  # already in the store when first visited
    lease_lost: int = 0  # claim races lost to other workers
    polls: int = 0  # waits on other workers' live leases
    duration_s: float = 0.0

    @property
    def executed(self) -> List[str]:
        """Spec hashes this worker ran, in the order it ran them."""
        return list(self.seconds)

    def summary(self) -> str:
        return (
            f"{self.owner}: executed {len(self.executed)} "
            f"(stolen {len(self.stolen)}, reclaimed {len(self.reclaimed)}), "
            f"cached {self.cached}, lost {self.lease_lost} claim race(s), "
            f"polled {self.polls}x, {self.duration_s:.2f}s"
        )


class GridWorker:
    """One cooperative drain participant over a shared store directory.

    Parameters
    ----------
    grid:
        The suite to drain.  Every participating worker must be given the
        same grid (they need no other shared state).
    store:
        The shared :class:`ResultStore`.  Results *and* leases live under
        its root, so pointing N workers at one root is the whole setup.
    owner:
        Worker identity recorded in lease files; defaults to a
        process-unique id.
    ttl:
        Lease time-to-live.  A worker silent for longer than this is
        presumed dead and its in-flight scenarios become stealable; a
        live one heartbeats every ``ttl / 4``.
    poll_s:
        Sleep between passes while other workers' live leases block the
        remaining scenarios.
    shard_index / num_shards:
        Optional deterministic shard affinity (see :func:`worker_order`).
    """

    def __init__(
        self,
        grid: ScenarioGrid,
        store: ResultStore,
        owner: Optional[str] = None,
        ttl: float = DEFAULT_TTL_S,
        poll_s: float = 0.5,
        shard_index: Optional[int] = None,
        num_shards: Optional[int] = None,
    ):
        self.grid = grid
        self.store = store
        self.leases = LeaseManager(store.root, owner=owner, ttl=ttl)
        self.poll_s = float(poll_s)
        self.shard_index = shard_index
        self.num_shards = num_shards
        self._order = worker_order(list(grid), shard_index, num_shards)

    @property
    def owner(self) -> str:
        return self.leases.owner

    def _is_mine(self, spec: ScenarioSpec) -> bool:
        if self.shard_index is None:
            return True
        return shard_of(spec.hash, self.num_shards) == self.shard_index

    def drain(self, max_scenarios: Optional[int] = None) -> WorkReport:
        """Work until the grid is complete (or this worker's budget is spent).

        Returns once every scenario of the grid has a store result —
        whoever produced it — or, with ``max_scenarios``, once this worker
        has executed that many.  Raises
        :class:`~repro.experiments.runner.executor.GridExecutionError` when
        the remaining scenarios have all failed here and no other worker
        holds a live claim on them.
        """
        report = WorkReport(owner=self.owner)
        failures: Dict[ScenarioSpec, str] = {}
        bundles: Dict[str, Any] = {}
        first_pass = True
        start = time.perf_counter()
        try:
            while True:
                if max_scenarios is not None and len(report.executed) >= max_scenarios:
                    break
                pending = [spec for spec in self._order if self.store.get(spec) is None]
                if first_pass:
                    report.cached = len(self.grid) - len(pending)
                    first_pass = False
                if not pending:
                    break
                progress = False
                for spec in pending:
                    if max_scenarios is not None and len(report.executed) >= max_scenarios:
                        break
                    if spec in failures:
                        continue  # one attempt per worker; others may still succeed
                    if self.store.get(spec) is not None:
                        continue  # another worker finished it this pass
                    was_expired = (
                        self.leases.owner_of(spec.hash) is not None
                        and not self.leases.is_live(spec.hash)
                    )
                    if not self.leases.acquire(spec.hash, label=spec.label()):
                        report.lease_lost += 1
                        continue
                    if self.store.get(spec) is not None:
                        # Another worker stored it and released its lease
                        # between our store check and our claim (owners store
                        # before they release), so the race is lost.
                        self.leases.release(spec.hash)
                        report.lease_lost += 1
                        continue
                    if was_expired:
                        report.reclaimed.append(spec.hash)
                        LOGGER.info(
                            "%s reclaimed expired lease for %s", self.owner, spec.label()
                        )
                    try:
                        with Heartbeat(self.leases, spec.hash):
                            result, elapsed, _ = execute_pending(
                                spec, self.store, bundles=bundles
                            )
                            self.store.put(spec, result)
                    except Exception as error:
                        failures[spec] = f"{type(error).__name__}: {error}"
                        LOGGER.warning(
                            "%s: scenario %s failed: %s", self.owner, spec.label(), error
                        )
                        continue
                    finally:
                        self.leases.release(spec.hash)
                    report.seconds[spec.hash] = elapsed
                    if not self._is_mine(spec):
                        report.stolen.append(spec.hash)
                    progress = True
                    LOGGER.info(
                        "%s: scenario %s done in %.2fs", self.owner, spec.label(), elapsed
                    )
                if progress:
                    continue
                # No claimable work this pass.  Scenarios behind other
                # workers' live leases are worth waiting for (the owner
                # either finishes them or crashes and we steal); scenarios
                # that failed here with no live claimant are not.
                remaining = [spec for spec in pending if self.store.get(spec) is None]
                if not remaining:
                    break
                stuck = [
                    spec
                    for spec in remaining
                    if spec in failures and not self.leases.is_live(spec.hash)
                ]
                if len(stuck) == len(remaining):
                    raise GridExecutionError(
                        {spec: failures[spec] for spec in stuck}, completed=report.seconds
                    )
                report.polls += 1
                time.sleep(self.poll_s)
        finally:
            restore_bundles(bundles.values())
            report.duration_s = time.perf_counter() - start
        return report


def drain_shard(
    grid: ScenarioGrid, store_root: str, shard_index: int, num_shards: int
) -> Tuple[Dict[str, float], Dict[str, str]]:
    """One local drain, run in a ``run_grid(workers > 1)`` pool process:
    (hash -> seconds run here, hash -> failure message).  Plain data,
    because a raised :class:`GridExecutionError` does not unpickle."""
    worker = GridWorker(
        grid, ResultStore(store_root), ttl=LOCAL_LEASE_TTL_S, poll_s=LOCAL_POLL_S,
        shard_index=shard_index, num_shards=num_shards,
    )
    try:
        return worker.drain().seconds, {}
    except GridExecutionError as error:
        return error.completed, {spec.hash: message for spec, message in error.failures.items()}
