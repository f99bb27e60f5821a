"""Coordinator-less grid workers: lease-claimed, shard-affine, work-stealing.

Any number of :class:`GridWorker` processes — ``run_grid(workers=N)``'s
worker processes, or hosts sharing a synced store directory — can be
pointed at the same :class:`~repro.experiments.runner.spec.ScenarioGrid`
and the same :class:`~repro.experiments.runner.store.ResultStore`, with no
coordinator:

* a scenario is *done* when its result is in the store, *in flight* when a
  live lease file exists next to it (see :mod:`repro.distributed.lease`),
  and *available* otherwise;
* each worker walks the grid in a deterministic order — the scenarios of
  its own shard (:func:`shard_of` over the spec hash) first, everyone
  else's after — claiming available scenarios via atomic lease creation;
* a worker claims and runs one *unit* at a time, through the runner's
  :func:`~repro.experiments.runner.executor.execute_unit`, which stores
  each result where it ran: one scenario, or a sharded worker's chunk of a
  stack group (the eval-only scenarios of one
  :func:`~repro.experiments.runner.scenarios.stack_key`, cut in hash order
  into one near-equal chunk per shard by :func:`stack_chunks`).  It takes
  the lease of every pending member of the chunk or of none (then runs the
  scenario on its own), heartbeats all of them while one stacked
  evaluation runs in one lane, and retries a stack that raises member by
  member;
* when only other workers' live leases remain, the worker polls: either
  the owners finish (results appear, leases vanish) or they crash (leases
  expire) and the poller *steals* the scenarios.  Stragglers therefore
  never stall a suite, and a SIGKILLed worker's claims are re-executed;
* a worker given a run token marks a scenario that fails beside its
  lease, so the other workers of that run skip it: one attempt per run.

Drain workers stack in one lane.  On the 2-CPU host, two concurrent pinned
processes stacking 14 configs each took 3.36 s with a second lane and
3.16-3.66 s without; a lane's model replica costs about 30 MB; and a lone
worker with lanes would beat its two-worker siblings by the lane alone.

Results are bit-identical to a serial :func:`~repro...executor.run_grid`
run no matter how many workers participate, which worker executes what, or
how many crashes occur mid-suite: every scenario reseeds from its spec
hash, so *what* runs determines the result and *who/when* cannot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.distributed.lease import DEFAULT_TTL_S, Heartbeat, LeaseManager
from repro.experiments.runner.executor import (
    BundleCache,
    GridExecutionError,
    WorkerState,
    execute_unit,
)
from repro.experiments.runner.scenarios import stack_chunks, stack_groups
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
    shards: Optional[Mapping[str, int]] = None,
) -> List[ScenarioSpec]:
    """The order one worker visits a grid: own shard first, then stealing.

    With a shard assignment, the worker's affine scenarios come first (the
    fast path: N equal workers visit disjoint prefixes and barely contend
    on leases), followed by every other shard's scenarios (the stealing
    path: whatever the affine owners have not finished or claimed).  Both
    halves are hash-ordered so all workers agree on the sequence within a
    shard.  A scenario's shard is :func:`shard_of` its hash, or its entry
    in ``shards`` (the chunk of a stack group, see :func:`stack_chunks`).
    Without a shard assignment all scenarios are one hash-ordered stealing
    pool.
    """
    if (shard_index is None) != (num_shards is None):
        raise ValueError("shard_index and num_shards must be given together")
    ordered = sorted(specs, key=lambda spec: spec.hash)
    if shard_index is None:
        return ordered
    if not 0 <= shard_index < num_shards:
        raise ValueError(f"shard_index {shard_index} outside 0..{num_shards - 1}")
    shards = shards or {}

    def shard(spec: ScenarioSpec) -> int:
        return shards.get(spec.hash, shard_of(spec.hash, num_shards))

    mine = [spec for spec in ordered if shard(spec) == shard_index]
    theirs = [spec for spec in ordered if shard(spec) != shard_index]
    return mine + theirs


@dataclass
class WorkReport:
    """What one :meth:`GridWorker.drain` call did."""

    owner: str
    seconds: Dict[str, float] = field(default_factory=dict)  # hash run here -> seconds
    failed: Dict[str, str] = field(default_factory=dict)  # hash that raised here -> message
    stacks: List[Tuple[str, ...]] = field(default_factory=list)  # hashes of each stack run here
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
            f"(stacked {sum(map(len, self.stacks))} in {len(self.stacks)} stack(s), "
            f"stolen {len(self.stolen)}, reclaimed {len(self.reclaimed)}), "
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
        A sharded worker also stacks: the eval-only scenarios of each
        stack group (:func:`~repro.experiments.runner.scenarios.stack_key`)
        are cut into one chunk per shard (:func:`stack_chunks`), and the
        worker runs a chunk as one stacked evaluation, in one lane.  An
        unsharded worker runs every scenario on its own.
    run:
        Token of the run this worker drains for.  With one, a scenario that
        fails here leaves a failure marker beside its lease, and every
        worker of the same run skips it (one attempt per run); without,
        each worker tries a failing scenario once.
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
        run: Optional[str] = None,
    ):
        self.grid = grid
        self.store = store
        self.leases = LeaseManager(store.root, owner=owner, ttl=ttl)
        self.poll_s = float(poll_s)
        self.shard_index = shard_index
        self.num_shards = num_shards
        self.run = run
        self.report: Optional[WorkReport] = None
        self._order = worker_order(list(grid), shard_index, num_shards)
        self._chunks: Dict[str, Tuple[int, Tuple[ScenarioSpec, ...]]] = {}

    @property
    def owner(self) -> str:
        return self.leases.owner

    def _is_mine(self, spec: ScenarioSpec) -> bool:
        if self.shard_index is None:
            return True
        if spec.hash in self._chunks:
            return self._chunks[spec.hash][0] == self.shard_index
        return shard_of(spec.hash, self.num_shards) == self.shard_index

    def _plan_stacks(self, bundles: BundleCache) -> None:
        """Cut the grid's stack groups into this run's chunks and put this
        worker's chunks first in its order."""
        self._chunks = stack_chunks(
            stack_groups(self.grid, bundles.bundle_for), self.num_shards
        )
        shards = {spec_hash: shard for spec_hash, (shard, _) in self._chunks.items()}
        self._order = worker_order(list(self.grid), self.shard_index, self.num_shards, shards)

    def _failed_in_run(self, spec: ScenarioSpec, failures: Dict[ScenarioSpec, str]) -> bool:
        """Whether a worker of this run has marked ``spec`` failed (and
        remember it among ``failures`` if so)."""
        if self.run is None:
            return False
        marker = self.leases.failure(spec.hash, self.run)
        if marker is None:
            return False
        failures.setdefault(spec, marker["message"])
        return True

    def _lease(
        self, spec: ScenarioSpec, report: WorkReport, failures: Dict[ScenarioSpec, str]
    ) -> bool:
        """Take ``spec``'s lease, unless it is stored, marked failed or
        claimed by another live worker."""
        was_expired = (
            self.leases.owner_of(spec.hash) is not None and not self.leases.is_live(spec.hash)
        )
        if not self.leases.acquire(spec.hash, label=spec.label()):
            return False
        if self.store.get(spec) is not None or self._failed_in_run(spec, failures):
            # Another worker stored (or failed) it and released its lease
            # between our check and our claim (owners store or mark before
            # they release), so the race is lost.
            self.leases.release(spec.hash)
            return False
        if was_expired:
            report.reclaimed.append(spec.hash)
            LOGGER.info("%s reclaimed expired lease for %s", self.owner, spec.label())
        return True

    def _claim(
        self, spec: ScenarioSpec, report: WorkReport, failures: Dict[ScenarioSpec, str]
    ) -> List[ScenarioSpec]:
        """Take the leases of ``spec``'s unit: of every pending member of its
        stack chunk (two or more) or of none; else of ``spec`` alone.
        Returns the claimed members, empty when not even ``spec``'s lease
        could be had."""
        chunk = self._chunks[spec.hash][1] if spec.hash in self._chunks else ()
        pending = [
            member for member in chunk
            if member not in failures and self.store.get(member) is None
        ]
        for members in ([pending] if len(pending) >= 2 else []) + [[spec]]:
            claimed: List[ScenarioSpec] = []
            for member in members:
                if not self._lease(member, report, failures):
                    break
                claimed.append(member)
            else:
                return claimed
            for taken in claimed:
                self.leases.release(taken.hash)
        return []

    def _execute(
        self,
        members: Sequence[ScenarioSpec],
        bundles: BundleCache,
        report: WorkReport,
        failures: Dict[ScenarioSpec, str],
    ) -> bool:
        """Run and store claimed ``members`` through
        :func:`~repro.experiments.runner.executor.execute_unit` (a stack in
        one lane).  A stack that raises is retried member by member; a
        scenario that raises is recorded (and marked failed for the run).
        Returns whether anything was stored."""
        try:
            results, elapsed = execute_unit(members, self.store, bundles)
        except Exception as error:
            if len(members) > 1:
                LOGGER.warning(
                    "%s: stack of %d failed (%s); running its members one by one",
                    self.owner, len(members), error,
                )
                # A list, not a generator: every member gets its attempt.
                return any([self._execute([spec], bundles, report, failures) for spec in members])
            (spec,) = members
            message = f"{type(error).__name__}: {error}"
            failures[spec] = report.failed[spec.hash] = message
            if self.run is not None:
                self.leases.mark_failed(spec.hash, self.run, message)
            LOGGER.warning("%s: scenario %s failed: %s", self.owner, spec.label(), error)
            return False
        for spec in members:
            self._record(spec, elapsed / len(members), report)
        if len(members) > 1:
            report.stacks.append(tuple(spec.hash for spec in members))
        LOGGER.info(
            "%s: %s (%d scenario(s)) done in %.2fs",
            self.owner, members[0].label(), len(members), elapsed,
        )
        return True

    def _record(self, spec: ScenarioSpec, elapsed: float, report: WorkReport) -> None:
        report.seconds[spec.hash] = elapsed
        if not self._is_mine(spec):
            report.stolen.append(spec.hash)

    def drain(self, max_scenarios: Optional[int] = None) -> WorkReport:
        """Work until the grid is complete (or this worker's budget is spent).

        Returns once every scenario of the grid has a store result —
        whoever produced it — or, with ``max_scenarios``, once this worker
        has executed that many (a budget turns stacking off).  Raises
        :class:`~repro.experiments.runner.executor.GridExecutionError` when
        the remaining scenarios have all failed (here, or in this run) and
        no other worker holds a live claim on them.  The report is also
        left in :attr:`report`, so a caller catching the error still sees
        what was done.
        """
        report = self.report = WorkReport(owner=self.owner)
        failures: Dict[ScenarioSpec, str] = {}
        bundles = BundleCache()
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
                    if pending and self.shard_index is not None and max_scenarios is None:
                        self._plan_stacks(bundles)
                        pending = [spec for spec in self._order if self.store.get(spec) is None]
                if not pending:
                    break
                progress = False
                for spec in pending:
                    if max_scenarios is not None and len(report.executed) >= max_scenarios:
                        break
                    if spec in failures or spec.hash in report.seconds:
                        continue  # one attempt per worker; or run in a stack this pass
                    if self._failed_in_run(spec, failures):
                        continue  # another worker of this run tried it
                    if self.store.get(spec) is not None:
                        continue  # another worker finished it this pass
                    members = self._claim(spec, report, failures)
                    if not members:
                        report.lease_lost += 1
                        continue
                    try:
                        with Heartbeat(self.leases, [member.hash for member in members]):
                            progress = self._execute(members, bundles, report, failures) or progress
                    finally:
                        for member in members:
                            self.leases.release(member.hash)
                if progress:
                    continue
                # No claimable work this pass.  Scenarios behind other
                # workers' live leases are worth waiting for (the owner
                # either finishes them or crashes and we steal); scenarios
                # that failed in this run with no live claimant are not.
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
            for bundle in bundles.values():
                bundle.reset()
            report.duration_s = time.perf_counter() - start
        return report


def drain_shard(
    state: WorkerState, grid: ScenarioGrid, shard_index: int, num_shards: int,
    run: Optional[str] = None,
) -> Tuple[WorkReport, Dict[str, str]]:
    """One local drain, run in a ``run_grid(workers > 1)`` worker process
    over its store: (its report, hash -> failure message)."""
    worker = GridWorker(
        grid, state.store, ttl=LOCAL_LEASE_TTL_S, poll_s=LOCAL_POLL_S,
        shard_index=shard_index, num_shards=num_shards, run=run,
    )
    try:
        worker.drain()
        failures: Dict[str, str] = {}
    except GridExecutionError as error:
        failures = {spec.hash: message for spec, message in error.failures.items()}
    return worker.report, failures
