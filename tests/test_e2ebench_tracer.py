"""The end-to-end benchmark's tracer still finds every name it wraps.

``e2ebench.tracing.Tracer.install`` wraps library functions and methods by
name (``spawn_worker_pool``, ``execute_api_eval_batch``, ``ResultStore.put``,
...).  A rename under ``src/`` would otherwise surface only as a failed
``--trace 1`` benchmark run; here it fails the test suite instead.
"""

from __future__ import annotations

import pytest


def test_tracer_installs_and_uninstalls():
    from e2ebench.tracing import Tracer

    import repro.api
    import repro.experiments.runner.executor as executor
    import repro.experiments.runner.scenarios as scenarios
    from repro.experiments.runner.store import ResultStore

    # The benchmark reaches two runner functions through repro.api's old
    # names; they are the runner's own objects, and no other name resolves.
    assert repro.api.eval_scenario_spec is scenarios.eval_scenario_spec
    assert repro.api.execute_api_eval_batch is scenarios.execute_api_eval_batch
    with pytest.raises(AttributeError):
        repro.api.stack_groups

    spawn, put = executor.spawn_worker_pool, ResultStore.put
    stack = repro.api.execute_api_eval_batch
    tracer = Tracer().install()
    try:
        assert executor.spawn_worker_pool is not spawn
        assert ResultStore.put is not put
        assert repro.api.execute_api_eval_batch is not stack
        # The binding execute_stack calls is the one wrapped.
        assert executor.execute_api_eval_batch is not stack
    finally:
        tracer.uninstall()
    assert executor.spawn_worker_pool is spawn
    assert ResultStore.put is put
    assert repro.api.execute_api_eval_batch is stack
    assert executor.execute_api_eval_batch is stack


@pytest.mark.slow
def test_traced_serial_grid_counts_one_stack(tmp_path, monkeypatch):
    """Two stackable ``api_eval`` specs run serially are one ``runner.stack``
    call of width 2: the serial path reaches the batch executor through the
    name the tracer wraps."""
    from e2ebench.tracing import Tracer

    from repro.api import eval_scenario_spec
    from repro.experiments.common import clear_bundle_cache
    from repro.experiments.runner import ScenarioGrid, run_grid
    from repro.sim import SimConfig

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_bundle_cache()
    grid = ScenarioGrid(
        name="traced",
        specs=tuple(
            eval_scenario_spec("smoke", SimConfig(mode="noisy", noise_sigma=sigma, pulses=8))
            for sigma in (4.0, 6.0)
        ),
    )
    tracer = Tracer().install()
    try:
        outcome = run_grid(grid)
    finally:
        tracer.uninstall()
        clear_bundle_cache()
    assert outcome.executed == 2
    assert tracer.calls["runner.stack"] == 1
    assert tracer.layer_metrics(1)["runner.stack.width"] == 2
