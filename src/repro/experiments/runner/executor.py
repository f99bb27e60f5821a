"""Grid execution: serial oracle, local lease-based workers, and cached resume.

:func:`run_grid` is the single entry point every experiment (through
:func:`repro.experiments.registry.run_experiment`), the benchmark harness and
the ``python -m repro.experiments`` CLI go through.

Execution modes
---------------
``workers <= 1`` (default)
    Scenarios run serially in-process.  This is the bit-exact oracle: every
    scenario reseeds from its spec hash and starts from the pre-trained
    snapshot, so the serial order is irrelevant to the results.  Sibling
    ``api_eval`` scenarios of one stack group run as one stacked
    evaluation in two lanes.

``workers > 1``
    Each of N spawned worker processes (:func:`spawn_worker_pool`, BLAS
    pinned to one thread) runs one :class:`~repro.distributed.worker.GridWorker`
    drain over the pending scenarios, shard ``i`` first: the lease protocol
    of ``python -m repro.distributed``, so workers store each result as it
    finishes.  The eval-only scenarios of each stack group are cut into N
    near-equal chunks, and worker ``i`` runs chunk ``i`` as one stacked
    evaluation in one lane.  A worker that dies orphans only the scenarios
    it had claimed; the survivors steal them after
    :data:`repro.distributed.worker.LOCAL_LEASE_TTL_S` and the same call
    completes.  A scenario that fails is tried once per call: its
    failure marker (beside its lease, tagged with the call's run token)
    makes the other workers skip it.  The parent reads the results back
    from the store.  Workers load their bundles from the on-disk pre-train
    cache (the parent puts the checkpoints there first) and reseed every
    scenario from its spec, so results are bit-identical to the serial
    oracle.

Both modes, and serve's worker processes, run each spec or stack through
:func:`execute_unit`, which stores every result where the work ran.

With a persistent :class:`~repro.experiments.runner.store.ResultStore`,
completed scenarios are skipped on re-run (resume); without one, a
per-call :class:`~repro.experiments.runner.store.MemoryStore` still shares
derived stages (e.g. NIA weights) between the scenarios of the call.
"""

from __future__ import annotations

import multiprocessing
import shutil
import signal
import tempfile
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.common import (
    evict_bundle,
    get_pretrained_bundle,
    prepare_checkpoint,
    profile_token,
)
from repro.distributed.lease import LeaseManager
from repro.experiments.runner.scenarios import (
    execute_api_eval_batch,
    execute_scenario,
    needs_bundle,
    stack_chunks,
    stack_groups,
)
from repro.experiments.runner.spec import ScenarioGrid, ScenarioSpec
from repro.experiments.runner.store import MemoryStore, ResultStore
from repro.utils.logging import get_logger
from repro.worker_env import blas_pool_pinned, worker_threads_pinned

LOGGER = get_logger("repro.runner")


class GridExecutionError(RuntimeError):
    """Scenarios failed, and no worker is left to finish them.

    Raised by :func:`run_grid` and :meth:`~repro.distributed.worker.GridWorker.drain`
    *after* every completed sibling's result is in the store, so a resumed
    run re-executes only the failures.  ``failures`` maps each failed spec
    to its error message; ``completed`` maps each completed spec hash to
    its execution seconds; ``executions`` (from :func:`run_grid`'s drains)
    counts how many times each spec was executed, failed attempts included.
    """

    def __init__(
        self,
        failures: Dict[ScenarioSpec, str],
        completed: Dict[str, float],
        executions: Optional[Dict[str, int]] = None,
    ):
        self.failures = failures
        self.completed = completed
        self.executions = executions if executions is not None else {}
        detail = "; ".join(f"{spec.label()}: {message}" for spec, message in failures.items())
        super().__init__(
            f"{len(failures)} scenario(s) failed with no live claimant ({detail}); "
            f"{len(completed)} completed sibling result(s) were persisted"
        )


@dataclass
class GridRunResult:
    """Outcome of one :func:`run_grid` call."""

    grid: ScenarioGrid
    results: Dict[str, Dict[str, Any]]  # spec hash -> scenario result
    executed: int = 0
    cached: int = 0
    workers: int = 0
    duration_s: float = 0.0
    per_scenario_s: Dict[str, float] = field(default_factory=dict)  # spec hash -> seconds
    #: Spec hashes of each stacked evaluation, one tuple per stack.
    stacks: List[Tuple[str, ...]] = field(default_factory=list)
    #: Spec hash -> how many times it was executed (a worker's failed
    #: attempts included).
    executions: Dict[str, int] = field(default_factory=dict)


class BundleCache:
    """Pre-trained bundles by profile token, least recently used out first.

    Unbounded (``max_models=None``) for one serial run or one drain; a
    worker process bounds it by ``max_models``.  An evicted bundle also
    leaves the execution context's cache
    (:func:`~repro.experiments.common.evict_bundle`), so its memory is
    released.  ``builder`` replaces
    :func:`~repro.experiments.common.get_pretrained_bundle` in tests.
    """

    def __init__(self, max_models: Optional[int] = None, builder: Optional[Callable] = None):
        if max_models is not None and max_models < 1:
            raise ValueError(f"max_models must be positive, got {max_models}")
        self.max_models = max_models
        self._builder = builder
        self._bundles: "OrderedDict[str, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._bundles)

    def values(self) -> List[Any]:
        return list(self._bundles.values())

    def bundle_for(self, spec: ScenarioSpec):
        """The pre-trained bundle ``spec`` runs against (``None`` if it needs none)."""
        if not needs_bundle(spec.experiment):
            return None
        profile = spec.resolved_profile()
        token = profile_token(profile)
        if token in self._bundles:
            self._bundles.move_to_end(token)
            return self._bundles[token]
        bundle = self._bundles[token] = (self._builder or get_pretrained_bundle)(profile)
        while self.max_models is not None and len(self._bundles) > self.max_models:
            evicted, _ = self._bundles.popitem(last=False)
            evict_bundle(evicted)
            LOGGER.info("evicted pre-trained bundle %s", evicted)
        return bundle


def execute_unit(
    members: Sequence[ScenarioSpec], store, bundles: BundleCache, lanes: int = 1
) -> Tuple[List[Dict[str, Any]], float]:
    """Run one unit of work and store each of its results: the one
    execute-and-store step of every execution path.

    A unit is one spec, run through
    :func:`~repro.experiments.runner.scenarios.execute_scenario` (which owns
    the determinism contract: per-spec derived seed, snapshot restore, fresh
    loaders), or a stack of specs sharing one
    :func:`~repro.experiments.runner.scenarios.stack_key`, run as one stacked
    evaluation (:func:`~repro.experiments.runner.scenarios.execute_api_eval_batch`
    in ``lanes`` lanes) on a one-thread BLAS pool, which gives a two-lane
    stack its second lane.  The bundle comes from ``bundles``, so a caller
    running many units builds each bundle once; ``store`` shares derived
    stages between the units and receives every member's result, where the
    work ran.  Returns the stored results, in member order, and the
    execution seconds (store writes excluded).

    Callers: the serial loop of :func:`run_grid`,
    :class:`repro.distributed.worker.GridWorker` (behind both
    ``run_grid(workers > 1)`` and ``python -m repro.distributed``) and
    serve's :func:`execute_spec`: one execution semantics, which keeps
    serial == parallel == distributed bit-identical.
    """
    bundle = bundles.bundle_for(members[0])
    start = time.perf_counter()
    if len(members) == 1:
        results = [execute_scenario(members[0], bundle=bundle, stage_store=store)]
    else:
        with blas_pool_pinned(1):
            results = execute_api_eval_batch(
                members, bundle=bundle, stage_store=store, lanes=lanes
            )
    elapsed = time.perf_counter() - start
    return [store.put(spec, result) for spec, result in zip(members, results)], elapsed


# ---------------------------------------------------------------------------
# Worker processes (module level so the spawn pickler can find them)
# ---------------------------------------------------------------------------
class WorkerError(RuntimeError):
    """A call failed in a worker process, or the process died before replying."""


@dataclass
class WorkerState:
    """What one worker process keeps between calls: the store its scenarios
    share derived stages through, and its own bundle cache."""

    store: Any
    bundles: BundleCache


def _worker_main(conn, store_root: Optional[str], max_models: Optional[int]) -> None:
    """The loop of one worker process: receive a call, run it, send back its
    plain-data result or an error string, until the parent closes the pipe.

    The process owns a fresh :class:`repro.context.ExecutionContext` (dtype
    policy, default RNG, grad flag, bundle cache), so nothing a scenario
    mutates leaks into the parent or a sibling.  It ignores SIGINT: a
    Ctrl-C reaches the whole process group, and the parent stops its
    workers itself.
    """
    from repro.context import ExecutionContext, activate_context

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    activate_context(ExecutionContext(name="runner-worker"))
    state = WorkerState(
        store=ResultStore(store_root) if store_root else MemoryStore(),
        bundles=BundleCache(max_models),
    )
    while True:
        try:
            function, args = conn.recv()
        except EOFError:
            return
        try:
            reply = (True, function(state, *args))
        except Exception as error:  # noqa: BLE001 - reported to the caller
            reply = (False, f"{type(error).__name__}: {error}")
        try:
            conn.send(reply)
        except OSError:  # the parent is gone
            return


def execute_spec(state: WorkerState, payload: Dict[str, Any]) -> Dict[str, Any]:
    """Serve's call: run and store one scenario in a worker process, return
    its stored result."""
    (result,), _ = execute_unit([ScenarioSpec.from_dict(payload)], state.store, state.bundles)
    return result


class WorkerProcess:
    """The parent's handle on one worker process: its pipe and its process."""

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn

    def send(self, function: Callable, *args: Any) -> None:
        """Start ``function(state, *args)`` in the worker."""
        self.conn.send((function, args))

    def ready(self) -> bool:
        """Whether :meth:`reply` would return or raise without waiting."""
        return self.conn.poll() or not self.process.is_alive()

    def reply(self) -> Any:
        """The result of the call in flight; raises :class:`WorkerError` if it
        failed or the process died first."""
        wait([self.conn, self.process.sentinel])
        try:
            ok, value = self.conn.recv()
        except (EOFError, OSError):
            self.process.join(timeout=1.0)
            raise WorkerError(
                f"worker process {self.process.pid} died "
                f"(exit code {self.process.exitcode})"
            ) from None
        if not ok:
            raise WorkerError(value)
        return value

    def call(self, function: Callable, *args: Any) -> Any:
        self.send(function, *args)
        return self.reply()

    def stop(self) -> None:
        """Terminate and join the process, whatever it is running."""
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5.0)
            if self.process.is_alive():
                self.process.kill()
        self.process.join()
        self.conn.close()


#: Serialises :func:`spawn_worker_pool`: the BLAS pin is a change to the
#: process environment, so two threads pinning and restoring it at once
#: could leave the parent pinned.
_SPAWN_LOCK = threading.Lock()


def spawn_worker_pool(
    workers: int,
    store_root: Optional[str] = None,
    max_models: Optional[int] = None,
) -> List[WorkerProcess]:
    """Start ``workers`` spawned worker processes, each with its own pipe.

    The processes behind :func:`run_grid`'s local drains and
    ``repro.serve``'s request dispatch.  All start inside one
    :func:`repro.worker_env.worker_threads_pinned` block, so each inherits
    BLAS pinned to one thread, and the environment it was started with
    (``REPRO_CACHE_DIR`` among it).  Each runs :func:`_worker_main`: its
    scenarios share derived stages through the store at ``store_root`` (a
    process-local memory store without one), and it keeps at most
    ``max_models`` pre-trained bundles (unbounded for ``None``).  Callers
    own the handles and must :meth:`~WorkerProcess.stop` them.
    """
    context = multiprocessing.get_context("spawn")
    handles: List[WorkerProcess] = []
    with _SPAWN_LOCK, worker_threads_pinned():
        for _ in range(workers):
            parent_end, child_end = context.Pipe()
            process = context.Process(
                target=_worker_main,
                args=(child_end, store_root, max_models),
                name="repro-worker",
                daemon=True,
            )
            process.start()
            child_end.close()
            handles.append(WorkerProcess(process, parent_end))
    return handles


def _run_workers(
    pending: Sequence[ScenarioSpec], workers: int, store, resume: bool, outcome: GridRunResult
) -> None:
    """Drain ``pending`` with one local GridWorker per worker process."""
    from repro.distributed.worker import drain_shard

    # Every needed checkpoint goes to disk first, so no worker pre-trains.
    for spec in pending:
        if needs_bundle(spec.experiment):
            prepare_checkpoint(spec.resolved_profile())

    # Workers write into the caller's store when its results may be reused,
    # else into a temporary one, copied over and removed afterwards.
    reuse = resume and isinstance(store, ResultStore)
    target = store if reuse else ResultStore(tempfile.mkdtemp(prefix="repro-grid-"))
    grid = ScenarioGrid(name=outcome.grid.name, specs=tuple(pending))
    failures: Dict[str, str] = {}
    lost: List[str] = []
    # A fresh run token: failure markers of earlier runs do not apply.
    run = uuid.uuid4().hex
    pool = spawn_worker_pool(workers, store_root=target.root)
    try:
        for index, worker in enumerate(pool):
            worker.send(drain_shard, grid, index, workers, run)
        busy = list(pool)
        while busy:
            wait([worker.conn for worker in busy] + [worker.process.sentinel for worker in busy])
            for worker in [worker for worker in busy if worker.ready()]:
                busy.remove(worker)
                try:
                    report, failed = worker.reply()
                except WorkerError as error:
                    # Its claim expires and a survivor steals it.
                    LOGGER.warning("grid worker lost: %s", error)
                    lost.append(str(error))
                    continue
                outcome.per_scenario_s.update(report.seconds)
                outcome.stacks.extend(report.stacks)
                for spec_hash in [*report.seconds, *report.failed]:
                    outcome.executions[spec_hash] = outcome.executions.get(spec_hash, 0) + 1
                failures.update(failed)
    finally:
        for worker in pool:
            worker.stop()
        LeaseManager(target.root).clear_failures(run)
        for spec in pending:
            result = target.get(spec)
            if result is None:
                continue
            if target is not store and store is not None:
                store.put(spec, result)
            outcome.results[spec.hash] = result
        if target is not store:
            shutil.rmtree(target.root, ignore_errors=True)
    outcome.executed = sum(spec.hash in outcome.results for spec in pending)
    for spec in pending:
        if spec.hash not in outcome.results and spec.hash not in failures:
            failures[spec.hash] = "no worker left to run it (" + "; ".join(lost) + ")"
    if failures:
        raise GridExecutionError(
            {spec: failures[spec.hash] for spec in pending if spec.hash in failures},
            completed=outcome.per_scenario_s,
            executions=outcome.executions,
        )


def run_grid(
    grid: ScenarioGrid,
    workers: int = 0,
    store: Optional[ResultStore] = None,
    bundle=None,
    resume: bool = True,
    batch: bool = True,
) -> GridRunResult:
    """Execute every scenario of ``grid`` and return all results.

    Parameters
    ----------
    workers:
        ``<= 1`` runs the serial in-process oracle; ``> 1`` drains pending
        scenarios with that many local lease-based workers, one per spawned
        process (see the module docstring).  A worker process that dies
        leaves its claim to the survivors.  A scenario that failed, or that
        no worker was left to run, raises :class:`GridExecutionError` once
        the rest are stored.
    store:
        Persistent result store.  With ``resume=True`` (default), scenarios
        already present in the store are returned from cache instead of
        recomputed — an interrupted suite picks up where it left off — and
        ``workers > 1`` write their results straight into it.
        ``None`` keeps results in memory for this call only (derived stages
        are still shared within the call).
    bundle:
        Optional pre-built bundle to execute against in serial mode (the
        benchmark harness shares one across experiments); only used for
        specs whose profile matches it.  The serial run resets every bundle
        it used on leaving, also when a scenario raises.
    resume:
        Set to ``False`` to recompute every scenario even on store hits
        (``workers > 1`` then drain into a temporary store and copy the
        results over).
    batch:
        Stack compatible sibling ``api_eval`` scenarios into one batched
        multi-scenario forward on the serial path, on a one-thread BLAS
        pool so the stack gets its second lane (default on; results are
        bit-identical per scenario and still persisted individually).
        ``workers > 1`` stack in their drains whatever this flag says:
        each worker runs its chunk of every eval-only stack group (Table I
        uniform cells, Fig. 2, A1, ``api_eval``) in one lane.
    """
    start = time.perf_counter()
    outcome = GridRunResult(grid=grid, results={}, workers=max(workers, 0))

    pending: List[ScenarioSpec] = []
    for spec in grid:
        cached = store.get(spec) if (store is not None and resume) else None
        if cached is not None:
            outcome.results[spec.hash] = cached
            outcome.cached += 1
        else:
            pending.append(spec)

    if pending and workers > 1:
        _run_workers(pending, workers, store, resume, outcome)
    else:
        store = store if store is not None else MemoryStore()

        def build(profile):
            # The caller's bundle serves the specs of its profile.
            if bundle is not None and profile_token(bundle.profile) == profile_token(profile):
                return bundle
            return get_pretrained_bundle(profile)

        bundles = BundleCache(builder=build)
        try:
            # Only api_eval specs stack here, in two lanes; drains stack
            # every eval-only kind (repro.distributed.worker), in one.
            api_evals = [spec for spec in pending if batch and spec.experiment == "api_eval"]
            units = stack_chunks(stack_groups(api_evals, bundles.bundle_for), 1)
            for spec in pending:
                if spec.hash in outcome.results:
                    continue  # run as a member of an earlier stack
                members = units[spec.hash][1] if spec.hash in units else (spec,)
                results, elapsed = execute_unit(members, store, bundles, lanes=2)
                for member, result in zip(members, results):
                    outcome.results[member.hash] = result
                    outcome.per_scenario_s[member.hash] = elapsed / len(members)
                    outcome.executions[member.hash] = 1
                outcome.executed += len(members)
                if len(members) > 1:
                    outcome.stacks.append(tuple(member.hash for member in members))
                LOGGER.info(
                    "%s (%d scenario(s)) done in %.2fs (%d/%d)",
                    spec.label(),
                    len(members),
                    elapsed,
                    outcome.executed + outcome.cached,
                    len(grid),
                )
        finally:
            # Even after a failure, no run leaves a bundle's model dirty.
            for used in bundles.values():
                used.reset()

    outcome.duration_s = time.perf_counter() - start
    return outcome
