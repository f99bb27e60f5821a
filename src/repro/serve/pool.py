"""The execution engine — the serving back end.

:class:`ExecutionEngine` runs every scenario in a worker process of the
runner's worker core (:func:`repro.experiments.runner.executor.spawn_worker_pool`),
the same processes ``run_grid(workers=N)`` drains with.  Queue thread ``i``
of the service owns process ``i``, at every worker count: the process is
spawned with the thread's first request, and again with its next request
after it died.  Each process owns its own
:class:`repro.context.ExecutionContext` (dtype policy, RNG stream, bundle
cache), so K distinct requests run ``min(K, workers)``-wide with no global
execution lock, keeps at most ``max_models`` pre-trained bundles, and
stores each result in the store at ``store_root`` itself
(:func:`~repro.experiments.runner.executor.execute_spec`).  The parent
only puts the checkpoint on disk
(:func:`repro.experiments.common.prepare_checkpoint`); it builds a model
only the first time a profile has none.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional

from repro.experiments.common import prepare_checkpoint
from repro.experiments.runner.executor import WorkerProcess, execute_spec, spawn_worker_pool
from repro.experiments.runner.spec import ScenarioSpec
from repro.utils.logging import get_logger

LOGGER = get_logger("repro.serve")


class ExecutionEngine:
    """One worker process per queue thread, spawned on demand."""

    def __init__(self, workers: int, store_root: Optional[str] = None, max_models: int = 2):
        if max_models < 1:
            raise ValueError(f"max_models must be positive, got {max_models}")
        self.store_root = store_root
        self.max_models = max_models
        self._slots: List[Optional[WorkerProcess]] = [None] * max(1, int(workers))
        self._lock = threading.Lock()
        self._closed = False

    def _process(self, slot: int) -> WorkerProcess:
        with self._lock:
            if self._closed:
                raise RuntimeError("the execution engine is shut down")
            worker = self._slots[slot]
            if worker is None or not worker.process.is_alive():
                if worker is not None:
                    LOGGER.warning("worker process %d died; spawning another", worker.process.pid)
                    worker.stop()
                (worker,) = spawn_worker_pool(
                    1, store_root=self.store_root, max_models=self.max_models
                )
                self._slots[slot] = worker
            return worker

    def execute(self, slot: int, spec: ScenarioSpec, needs_model: bool) -> Dict[str, Any]:
        """Run and store ``spec`` in process ``slot``; return its stored result.

        Raises :class:`~repro.experiments.runner.executor.WorkerError` when
        the scenario failed, or the process died while running it.
        """
        if needs_model:
            prepare_checkpoint(spec.resolved_profile())
        return self._process(slot).call(execute_spec, spec.as_dict())

    def shutdown(self) -> None:
        """Terminate and join every worker process, busy or not."""
        with self._lock:
            self._closed = True
            slots, self._slots = self._slots, [None] * len(self._slots)
        for worker in slots:
            if worker is not None:
                worker.stop()
