"""The end-to-end benchmark's tracer still finds every name it wraps.

``e2ebench.tracing.Tracer.install`` wraps library functions and methods by
name (``spawn_worker_pool``, ``execute_api_eval_batch``, ``ResultStore.put``,
...).  A rename under ``src/`` would otherwise surface only as a failed
``--trace 1`` benchmark run; here it fails the test suite instead.
"""

from __future__ import annotations


def test_tracer_installs_and_uninstalls():
    from e2ebench.tracing import Tracer

    import repro.experiments.runner.executor as executor
    from repro.experiments.runner.store import ResultStore

    spawn, put = executor.spawn_worker_pool, ResultStore.put
    tracer = Tracer().install()
    try:
        assert executor.spawn_worker_pool is not spawn
        assert ResultStore.put is not put
    finally:
        tracer.uninstall()
    assert executor.spawn_worker_pool is spawn
    assert ResultStore.put is put
