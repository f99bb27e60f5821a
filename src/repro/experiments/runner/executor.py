"""Grid execution: serial oracle, local lease-based workers, and cached resume.

:func:`run_grid` is the single entry point every experiment (through
:func:`repro.experiments.registry.run_experiment`), the benchmark harness and
the ``python -m repro.experiments`` CLI go through.

Execution modes
---------------
``workers <= 1`` (default)
    Scenarios run serially in-process.  This is the bit-exact oracle: every
    scenario reseeds from its spec hash and starts from the pre-trained
    snapshot, so the serial order is irrelevant to the results.

``workers > 1``
    Each process of a spawn pool (:func:`spawn_worker_pool`, BLAS pinned to
    one thread) runs one :class:`~repro.distributed.worker.GridWorker`
    drain over the pending scenarios, shard ``i`` first: the lease protocol
    of ``python -m repro.distributed``, so workers store each result as it
    finishes and a resumed run steals what a killed run left claimed
    (after :data:`repro.distributed.worker.LOCAL_LEASE_TTL_S`).  The
    parent reads the results back from the store.  Workers load their
    bundles from the on-disk pre-train cache (the parent prepares it first)
    and reseed every scenario from its spec, so results are bit-identical
    to the serial oracle.

With a persistent :class:`~repro.experiments.runner.store.ResultStore`,
completed scenarios are skipped on re-run (resume); without one, a
per-call :class:`~repro.experiments.runner.store.MemoryStore` still shares
derived stages (e.g. NIA weights) between the scenarios of the call.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments.common import (
    ensure_checkpoint_on_disk,
    get_pretrained_bundle,
    profile_token,
)
from repro.experiments.profiles import get_profile
from repro.experiments.runner.scenarios import execute_scenario, needs_bundle
from repro.experiments.runner.spec import ScenarioGrid, ScenarioSpec
from repro.experiments.runner.store import MemoryStore, ResultStore, jsonify_result
from repro.sim import SimConfig, apply_config
from repro.utils.logging import get_logger
from repro.worker_env import worker_threads_pinned

LOGGER = get_logger("repro.runner")


class GridExecutionError(RuntimeError):
    """Scenarios failed, and no worker is left to finish them.

    Raised by :func:`run_grid` and :meth:`~repro.distributed.worker.GridWorker.drain`
    *after* every completed sibling's result is in the store, so a resumed
    run re-executes only the failures.  ``failures`` maps each failed spec
    to its error message; ``completed`` maps each completed spec hash to
    its execution seconds.
    """

    def __init__(self, failures: Dict[ScenarioSpec, str], completed: Dict[str, float]):
        self.failures = failures
        self.completed = completed
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


def _bundle_for(spec: ScenarioSpec, bundles: Dict[str, Any], explicit_bundle=None):
    """The pre-trained bundle a spec runs against (memoised per profile)."""
    if not needs_bundle(spec.experiment):
        return None
    profile = get_profile(spec.profile).with_overrides(**spec.override_dict())
    token = profile_token(profile)
    if explicit_bundle is not None and profile_token(explicit_bundle.profile) == token:
        return explicit_bundle
    if token not in bundles:
        bundles[token] = get_pretrained_bundle(profile)
    return bundles[token]


def execute_pending(
    spec: ScenarioSpec,
    stage_store,
    bundles: Optional[Dict[str, Any]] = None,
    explicit_bundle=None,
) -> Tuple[Dict[str, Any], float, Any]:
    """The one scenario-execution core every execution path calls.

    Resolves the spec's pre-trained bundle (memoised in ``bundles`` per
    profile token, so a caller draining many scenarios builds each bundle
    once), executes the scenario through
    :func:`~repro.experiments.runner.scenarios.execute_scenario` (which owns
    the determinism contract: per-spec derived seed, snapshot restore,
    fresh loaders) and returns ``(result, elapsed_s, bundle)``.

    Callers: the serial loop of :func:`run_grid`,
    :class:`repro.distributed.worker.GridWorker` (behind both
    ``run_grid(workers > 1)`` and ``python -m repro.distributed``) and
    serve's :func:`_worker_run` — one execution semantics, which keeps
    serial == parallel == distributed bit-identical.  The returned bundle
    (``None`` for bundle-free experiments) is for :func:`restore_bundles`.
    """
    bundle = _bundle_for(spec, bundles if bundles is not None else {}, explicit_bundle)
    start = time.perf_counter()
    result = execute_scenario(spec, bundle=bundle, stage_store=stage_store)
    return result, time.perf_counter() - start, bundle


def restore_bundles(bundles: Iterable[Any]) -> None:
    """Leave shared models at the pre-trained snapshot, trainable, in the
    clean baseline config."""
    for bundle in bundles:
        bundle.restore_pretrained()
        bundle.model.requires_grad_(True)
        apply_config(bundle.model, SimConfig(mode="clean"))


# ---------------------------------------------------------------------------
# Worker-pool plumbing (module level so the spawn pickler can find it)
# ---------------------------------------------------------------------------
def _worker_init(cache_dir: Optional[str], store_root: Optional[str]) -> None:
    """Bootstrap one spawned worker: activate the worker's own context.

    Every worker process owns a fresh :class:`repro.context.ExecutionContext`
    (dtype policy, default RNG, grad flag, bundle cache), so nothing a
    scenario mutates can leak into the parent or a sibling.  Its stage
    store, for :func:`_worker_run`, is the store at ``store_root`` if given,
    else a process-local MemoryStore.
    """
    from repro.context import ExecutionContext, activate_context

    if cache_dir:
        os.environ["REPRO_CACHE_DIR"] = cache_dir
    activate_context(
        ExecutionContext(
            stage_store=ResultStore(store_root) if store_root else MemoryStore(),
            name="runner-worker",
        )
    )


def _worker_run(payload: Dict[str, Any]) -> Tuple[str, Dict[str, Any], float]:
    from repro.context import current_context

    spec = ScenarioSpec.from_dict(payload)
    stage_store = current_context().stage_store
    if stage_store is None:
        stage_store = MemoryStore()
    result, elapsed, _ = execute_pending(spec, stage_store)
    return spec.hash, result, elapsed


def _worker_ping() -> int:
    """No-op task used to force eager worker spawn (see spawn_worker_pool)."""
    return os.getpid()


def spawn_worker_pool(
    workers: int,
    store_root: Optional[str] = None,
    cache_dir: Optional[str] = None,
) -> ProcessPoolExecutor:
    """A long-lived spawn pool whose workers each own an execution context.

    The processes behind :func:`run_grid`'s local drains and
    ``repro.serve``'s request dispatch, each bootstrapped through
    :func:`_worker_init` with BLAS pools pinned to one thread
    (:func:`repro.worker_env.worker_threads_pinned`).

    The pool spawns all its processes before returning, by submitting one
    ping per worker: ``ProcessPoolExecutor`` otherwise spawns lazily at
    submit time, after this function restored the parent's BLAS
    environment — the pinning must be inherited at process creation.
    Callers own the returned executor and must ``shutdown()`` it.
    """
    with worker_threads_pinned():
        pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_worker_init,
            initargs=(cache_dir, store_root),
        )
        # Each submit spawns a new process while the pool is below
        # max_workers, so N pings guarantee N workers exist — created while
        # the BLAS pinning above is still in the environment.
        for future in [pool.submit(_worker_ping) for _ in range(workers)]:
            future.result()
    return pool


def _run_workers(
    pending: Sequence[ScenarioSpec], workers: int, store, resume: bool, outcome: GridRunResult
) -> None:
    """Drain ``pending`` with one local GridWorker per pool process."""
    from repro.distributed.worker import drain_shard

    # Every needed checkpoint goes to disk first, so no worker pre-trains.
    bundles: Dict[str, Any] = {}
    for spec in pending:
        bundle = _bundle_for(spec, bundles)
        if bundle is not None:
            ensure_checkpoint_on_disk(bundle)

    # Workers write into the caller's store when its results may be reused,
    # else into a temporary one, copied over and removed afterwards.
    reuse = resume and isinstance(store, ResultStore)
    target = store if reuse else ResultStore(tempfile.mkdtemp(prefix="repro-grid-"))
    grid = ScenarioGrid(name=outcome.grid.name, specs=tuple(pending))
    failures: Dict[str, str] = {}
    try:
        with spawn_worker_pool(workers, cache_dir=os.environ.get("REPRO_CACHE_DIR")) as pool:
            futures = [
                pool.submit(drain_shard, grid, target.root, index, workers)
                for index in range(workers)
            ]
            for future in futures:
                seconds, failed = future.result()
                outcome.per_scenario_s.update(seconds)
                failures.update(failed)
    finally:
        # Runs on a broken pool too, so finished work reaches the caller.
        for spec in pending:
            result = target.get(spec)
            if result is None:
                continue
            if target is not store and store is not None:
                store.put(spec, result)
            outcome.results[spec.hash] = result
        if target is not store:
            shutil.rmtree(target.root, ignore_errors=True)
    outcome.executed = len(outcome.per_scenario_s)
    if failures:
        raise GridExecutionError(
            {spec: failures[spec.hash] for spec in pending if spec.hash in failures},
            completed=outcome.per_scenario_s,
        )


def _stack_groups(pending: Sequence[ScenarioSpec]) -> Dict[str, List[ScenarioSpec]]:
    """Map spec hash -> its stackable sibling group (only groups of >= 2).

    Groups compatible ``api_eval`` scenarios (same profile+overrides, repeat
    count and :meth:`SimConfig.compat_key`; see
    :func:`repro.api.api_eval_batch_key`) so the serial path can evaluate
    each group in one batched evaluation, sharing each batch's stem and
    first-layer reads (:func:`repro.api.execute_api_eval_batch`).  Results stay keyed per spec and
    bit-identical to sequential execution, so resume/caching is unaffected.
    """
    from repro.api import api_eval_batch_key

    by_key: Dict[Any, List[ScenarioSpec]] = {}
    for spec in pending:
        key = api_eval_batch_key(spec)
        if key is not None:
            by_key.setdefault(key, []).append(spec)
    groups: Dict[str, List[ScenarioSpec]] = {}
    for members in by_key.values():
        if len(members) >= 2:
            for member in members:
                groups[member.hash] = members
    return groups


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
        process (see the module docstring).  A scenario failing there
        raises :class:`GridExecutionError` once the rest are stored.
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
        specs whose profile matches it.
    resume:
        Set to ``False`` to recompute every scenario even on store hits
        (``workers > 1`` then drain into a temporary store and copy the
        results over).
    batch:
        Stack compatible sibling ``api_eval`` scenarios into one batched
        multi-scenario forward on the serial path (default on; results are
        bit-identical per scenario and still persisted individually).
        ``workers > 1`` ignores this flag.
    """
    start = time.perf_counter()
    outcome = GridRunResult(grid=grid, results={}, workers=max(workers, 0))
    stage_store = store if store is not None else MemoryStore()

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
        groups = _stack_groups(pending) if batch else {}
        bundles: Dict[str, Any] = {}
        touched: Dict[int, Any] = {}

        def _record(spec, result, elapsed):
            if store is not None:
                result = store.put(spec, result)
            else:
                result = jsonify_result(result)
            outcome.results[spec.hash] = result
            outcome.per_scenario_s[spec.hash] = elapsed
            outcome.executed += 1

        for spec in pending:
            if spec.hash in outcome.results:
                continue  # run as a member of an earlier stacked group
            members = groups.get(spec.hash)
            if members is not None:
                from repro.api import execute_api_eval_batch

                spec_bundle = _bundle_for(spec, bundles, explicit_bundle=bundle)
                if spec_bundle is not None:
                    touched[id(spec_bundle)] = spec_bundle
                scenario_start = time.perf_counter()
                results = execute_api_eval_batch(
                    members, bundle=spec_bundle, stage_store=stage_store
                )
                elapsed = time.perf_counter() - scenario_start
                for member, result in zip(members, results):
                    _record(member, result, elapsed / len(members))
                LOGGER.info(
                    "stacked %d compatible scenarios in %.2fs (%d/%d)",
                    len(members),
                    elapsed,
                    outcome.executed + outcome.cached,
                    len(grid),
                )
                continue
            result, elapsed, spec_bundle = execute_pending(
                spec, stage_store, bundles=bundles, explicit_bundle=bundle
            )
            if spec_bundle is not None:
                touched[id(spec_bundle)] = spec_bundle
            _record(spec, result, elapsed)
            LOGGER.info(
                "scenario %s done in %.2fs (%d/%d)",
                spec.label(),
                elapsed,
                outcome.executed + outcome.cached,
                len(grid),
            )
        restore_bundles(touched.values())

    outcome.duration_s = time.perf_counter() - start
    return outcome
