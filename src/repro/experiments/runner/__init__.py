"""Scenario-pipeline runner: one cached, parallel, resumable execution layer.

The paper's results are a grid of (method x noise level x encoding x gamma)
scenarios.  This subsystem turns that grid into data:

* :class:`~repro.experiments.runner.spec.ScenarioSpec` declares one scenario
  (experiment, method, profile, noise level, gamma, engine pin, seed);
  :class:`~repro.experiments.runner.spec.ScenarioGrid` is a named collection
  of specs.  Every spec has a stable content hash, and every scenario derives
  its RNG seed from that hash — execution order and process boundaries cannot
  change a scenario's result.
* :class:`~repro.experiments.runner.store.ResultStore` is a content-addressed
  on-disk store keyed by the spec hash (under the ``.repro_cache/`` directory
  that already holds the pre-train cache), so interrupted suites resume
  instead of recomputing.
* :func:`~repro.experiments.runner.executor.run_grid` executes a grid either
  serially in-process (the bit-exact oracle) or with N local lease-based
  worker processes from :mod:`repro.distributed` — the same workers that
  any count of processes on hosts sharing the store directory can run —
  bit-identically; both paths call the same
  :func:`~repro.experiments.runner.executor.execute_pending` core.

Every experiment (``fig1b``, ``fig2``, ``table1``, ``table2`` and the three
``ablations``) is a grid on this runner plus an assembler; see
:mod:`repro.experiments.registry` for the index and
``python -m repro.experiments`` for the CLI.
"""

from repro.experiments.runner.executor import (
    GridExecutionError,
    GridRunResult,
    execute_pending,
    run_grid,
)
from repro.experiments.runner.scenarios import ScenarioContext, execute_scenario, needs_bundle
from repro.experiments.runner.spec import ScenarioGrid, ScenarioSpec
from repro.experiments.runner.store import MemoryStore, ResultStore, default_store

__all__ = [
    "GridExecutionError",
    "execute_pending",
    "ScenarioSpec",
    "ScenarioGrid",
    "ResultStore",
    "MemoryStore",
    "default_store",
    "ScenarioContext",
    "execute_scenario",
    "needs_bundle",
    "run_grid",
    "GridRunResult",
]
