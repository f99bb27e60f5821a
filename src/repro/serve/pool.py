"""Model pool and execution engine — the serving back end.

Two concerns live here, deliberately separated from the front end:

:class:`ModelPool`
    Keeps **one shared pre-trained bundle per distinct profile token**,
    LRU-bounded by ``max_models``.  Pre-trained weights depend only on the
    profile (see :func:`repro.experiments.common.profile_token`), so every
    request configuration against the same profile shares one model copy —
    the per-request state (sim config, RNG stream) is applied and undone
    around each execution by the scenario machinery, never baked into the
    pooled model.  Eviction also drops the bundle from the execution
    context's bundle cache (via
    :func:`repro.experiments.common.evict_bundle`) so memory is actually
    released.  Lookups are safe under concurrent callers: a per-token
    build lock makes simultaneous misses for the same profile build once.

:class:`ExecutionEngine`
    Routes scenario execution.  With ``workers > 1`` it dispatches to the
    runner's spawn-pool executor
    (:func:`repro.experiments.runner.executor.spawn_worker_pool`): each
    worker process owns its own :class:`repro.context.ExecutionContext` —
    dtype policy, RNG stream, bundle cache — so K distinct requests run
    ``min(K, workers)``-wide with **no global execution lock**.  With
    ``workers <= 1`` (default) scenarios run inline, one at a time behind
    a lock: inline execution mutates the *parent's* context (dtype policy,
    RNG seeding, pooled-model configuration), and overlapping that within
    one context is exactly what :class:`repro.sim.ConcurrentDtypeError`
    forbids.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, Optional

from repro.experiments.common import (
    ensure_checkpoint_on_disk,
    evict_bundle,
    get_pretrained_bundle,
    profile_token,
)
from repro.experiments.profiles import get_profile
from repro.experiments.runner.executor import (
    _worker_run,
    _worker_run_batch,
    spawn_worker_pool,
)
from repro.experiments.runner.scenarios import execute_scenario
from repro.experiments.runner.spec import ScenarioSpec
from repro.experiments.runner.store import ResultStore
from repro.tensor.dtype import compute_dtype_name, set_compute_dtype
from repro.utils.logging import get_logger

LOGGER = get_logger("repro.serve")


class ModelPool:
    """LRU-bounded cache of pre-trained bundles, keyed by profile token."""

    def __init__(
        self,
        max_models: int = 2,
        builder: Optional[Callable[[Any], Any]] = None,
    ):
        if max_models < 1:
            raise ValueError(f"max_models must be positive, got {max_models}")
        self.max_models = max_models
        # Injectable for tests (stub bundles instead of real pre-training).
        self._builder = builder or get_pretrained_bundle
        self._bundles: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._build_locks: Dict[str, threading.Lock] = {}
        self.loads = 0
        self.hits = 0
        self.evictions = 0

    def bundle_for(self, spec: ScenarioSpec):
        """The shared pre-trained bundle for ``spec``'s resolved profile."""
        profile = get_profile(spec.profile).with_overrides(**spec.override_dict())
        token = profile_token(profile)
        with self._lock:
            if token in self._bundles:
                self._bundles.move_to_end(token)
                self.hits += 1
                return self._bundles[token]
            build_lock = self._build_locks.setdefault(token, threading.Lock())
        # Build outside the pool lock: pre-training/loading can take long and
        # must not block stats() or unrelated lookups.  Callers are no longer
        # serialised by an engine-wide execution lock, so simultaneous misses
        # for the *same* token are funnelled through a per-token build lock:
        # the first caller builds, the rest find the bundle on their
        # double-check and count as hits.
        with build_lock:
            with self._lock:
                if token in self._bundles:
                    self._bundles.move_to_end(token)
                    self.hits += 1
                    return self._bundles[token]
            bundle = self._builder(profile)
            with self._lock:
                self._bundles[token] = bundle
                self._bundles.move_to_end(token)
                self.loads += 1
                self._build_locks.pop(token, None)
                while len(self._bundles) > self.max_models:
                    evicted_token, _ = self._bundles.popitem(last=False)
                    evict_bundle(evicted_token)
                    self.evictions += 1
                    LOGGER.info("model pool evicted bundle %s", evicted_token)
        return bundle

    def tokens(self) -> list:
        with self._lock:
            return list(self._bundles)

    def __len__(self) -> int:
        with self._lock:
            return len(self._bundles)

    def clear(self) -> None:
        with self._lock:
            for token in list(self._bundles):
                evict_bundle(token)
            self._bundles.clear()

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "models_loaded": self.loads,
                "model_hits": self.hits,
                "model_evictions": self.evictions,
                "models_resident": len(self._bundles),
            }


class ExecutionEngine:
    """Execute scenarios inline (serialised) or on a spawn pool (parallel).

    ``workers > 1`` turns on parallel dispatch: every execution is shipped
    to a lazily created long-lived spawn pool whose worker processes each
    own an :class:`~repro.context.ExecutionContext`, so distinct requests
    genuinely overlap.  The parent only warms the pre-train checkpoint
    onto disk first (so workers never pre-train redundantly) — it mutates
    none of its own execution state, which is why no lock is taken on this
    path.  ``workers <= 1`` keeps the original inline path: one scenario
    at a time behind ``self.lock``, parent-context dtype snapshotted and
    restored around the run.
    """

    def __init__(self, pool: ModelPool, stage_store=None, workers: int = 1):
        self.pool = pool
        self.stage_store = stage_store
        self.workers = max(1, int(workers))
        #: The inline-execution lock: all parent-context mutation (dtype
        #: policy, RNG seeding, pooled-model configuration) happens while
        #: held.  Parallel dispatch never takes it.
        self.lock = threading.Lock()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._executor_lock = threading.Lock()

    @property
    def parallel(self) -> bool:
        return self.workers > 1

    def _pool_executor(self) -> ProcessPoolExecutor:
        with self._executor_lock:
            if self._executor is None:
                store_root = (
                    self.stage_store.root
                    if isinstance(self.stage_store, ResultStore)
                    else None
                )
                self._executor = spawn_worker_pool(
                    self.workers,
                    store_root=store_root,
                    cache_dir=os.environ.get("REPRO_CACHE_DIR"),
                )
                LOGGER.info("execution engine spawned %d worker(s)", self.workers)
            return self._executor

    def shutdown(self) -> None:
        """Tear down the worker pool (if one was ever spawned)."""
        with self._executor_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def execute(self, spec: ScenarioSpec, needs_model: bool) -> Dict[str, Any]:
        """Run ``spec`` and return its raw result dict."""
        if self.parallel:
            return self._execute_parallel(spec, needs_model)
        return self._execute_inline(spec, needs_model)

    def _execute_parallel(self, spec: ScenarioSpec, needs_model: bool) -> Dict[str, Any]:
        if needs_model:
            # Warm through the pool so the parent keeps meaningful pool
            # stats/LRU accounting, then make sure the checkpoint is on disk
            # — the worker rebuilds its own copy from there into its own
            # context's bundle cache.
            ensure_checkpoint_on_disk(self.pool.bundle_for(spec))
        executor = self._pool_executor()
        try:
            _, result, _ = executor.submit(_worker_run, spec.as_dict()).result()
        except BrokenProcessPool:
            # A worker died (OOM, signal).  Drop the broken pool so the next
            # request spawns a fresh one instead of failing forever.
            with self._executor_lock:
                if self._executor is executor:
                    self._executor = None
            executor.shutdown(wait=False, cancel_futures=True)
            raise
        return result

    def execute_batch(self, specs) -> list:
        """Run compatible ``api_eval`` specs as one batched evaluation.

        Returns one result dict per spec, in order, each bit-identical to
        what :meth:`execute` would produce for that spec alone (see
        :func:`repro.api.execute_api_eval_batch`).  All members resolve
        against the same profile bundle by construction (the stacking key
        includes profile and overrides), so parallel dispatch ships the
        whole group to **one** worker process — the win is the folded
        shared work inside the batched evaluation, not cross-worker fan-out.
        """
        if self.parallel:
            ensure_checkpoint_on_disk(self.pool.bundle_for(specs[0]))
            executor = self._pool_executor()
            payloads = [spec.as_dict() for spec in specs]
            try:
                _, results, _ = executor.submit(_worker_run_batch, payloads).result()
            except BrokenProcessPool:
                with self._executor_lock:
                    if self._executor is executor:
                        self._executor = None
                executor.shutdown(wait=False, cancel_futures=True)
                raise
            return results
        from repro.api import execute_api_eval_batch

        with self.lock:
            saved_dtype = compute_dtype_name()
            try:
                bundle = self.pool.bundle_for(specs[0])
                return execute_api_eval_batch(
                    specs, bundle=bundle, stage_store=self.stage_store
                )
            finally:
                set_compute_dtype(saved_dtype)

    def _execute_inline(self, spec: ScenarioSpec, needs_model: bool) -> Dict[str, Any]:
        # The current context's dtype policy is snapshotted and restored
        # around the run: scenario executors may legitimately switch it
        # (``api_eval`` goes through a :class:`~repro.sim.Session`, which
        # restores it itself, but the engine must not rely on every executor
        # being that careful — the server's policy is no residue, ever).
        with self.lock:
            saved_dtype = compute_dtype_name()
            try:
                bundle = self.pool.bundle_for(spec) if needs_model else None
                return execute_scenario(
                    spec, bundle=bundle, stage_store=self.stage_store
                )
            finally:
                set_compute_dtype(saved_dtype)
