"""The allocator and BLAS-thread policies of :mod:`repro.worker_env`.

The two guard tests at the end of the module find the session's thread
variables and BLAS pool as the module found them.
"""

from __future__ import annotations

import ctypes
import os

import pytest

from repro import worker_env

#: The thread variables as the session had them when this module was collected.
_SESSION_THREAD_ENV = {name: os.environ.get(name) for name in worker_env.WORKER_THREAD_ENV}
#: The session's BLAS pool size when this module was collected.
_SESSION_POOL = worker_env.blas_threads()

needs_openblas = pytest.mark.skipif(
    _SESSION_POOL is None, reason="numpy's bundled OpenBLAS was not found"
)


def _has_mallopt() -> bool:
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return False
    return True


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_keep_heap_resident_applies_and_is_idempotent():
    assert worker_env.keep_heap_resident() is True
    assert worker_env.keep_heap_resident() is True


def test_heap_policy_sets_both_thresholds():
    # Setting only the trim threshold freezes the mmap threshold at 128 KiB.
    assert dict(worker_env.HEAP_POLICY) == {-3: 32 << 20, -1: 256 << 20}


def test_keep_heap_resident_is_a_no_op_without_mallopt(monkeypatch):
    class NoMallopt:
        def __getattr__(self, name):
            raise AttributeError(name)

    monkeypatch.setattr(worker_env.ctypes, "CDLL", lambda name: NoMallopt())
    assert worker_env.keep_heap_resident() is False
    assert worker_env.keep_heap_resident() is False


def test_keep_heap_resident_is_a_no_op_without_a_c_library(monkeypatch):
    def no_library(name):
        raise OSError("no C library")

    monkeypatch.setattr(worker_env.ctypes, "CDLL", no_library)
    assert worker_env.keep_heap_resident() is False


@needs_openblas
def test_scoped_pin_reads_one_inside_and_the_previous_size_after():
    with worker_env.blas_pool_pinned(2) as outer:
        assert outer == worker_env.blas_threads() == 2
        with worker_env.blas_pool_pinned() as threads:
            assert threads == worker_env.blas_threads() == 1
        assert worker_env.blas_threads() == 2
    assert worker_env.blas_threads() == _SESSION_POOL


@needs_openblas
def test_scoped_pin_restores_the_pool_when_the_block_raises():
    with worker_env.blas_pool_pinned(2):
        with pytest.raises(RuntimeError):
            with worker_env.blas_pool_pinned(1):
                assert worker_env.blas_threads() == 1
                raise RuntimeError("inside the pin")
        assert worker_env.blas_threads() == 2


@needs_openblas
def test_blas_pinned_reads_the_pool_not_the_variables():
    with worker_env.worker_threads_pinned(), worker_env.blas_pool_pinned(2):
        assert not worker_env.blas_pinned()
    with worker_env.blas_pool_pinned(1):
        assert worker_env.blas_pinned()


def test_without_openblas_blas_pinned_reads_every_thread_variable(monkeypatch):
    monkeypatch.setattr(worker_env, "_openblas", lambda: None)
    assert worker_env.blas_threads() is None
    for name in worker_env.WORKER_THREAD_ENV:
        monkeypatch.delenv(name, raising=False)
    assert not worker_env.blas_pinned()
    with worker_env.blas_pool_pinned() as threads:
        assert threads is None
    with worker_env.worker_threads_pinned():
        assert worker_env.blas_pinned()
        # Set directly, not through monkeypatch: monkeypatch would record the
        # pinned "1" as the value to restore and put it back at teardown, for
        # the rest of the session.  The context manager restores it on exit.
        os.environ["OPENBLAS_NUM_THREADS"] = "2"
        assert not worker_env.blas_pinned()
    assert not worker_env.blas_pinned()


@needs_openblas
def test_stacked_evaluation_is_bit_identical_at_pool_sizes_one_and_two():
    # One thread runs two lanes, two threads one lane: the accuracies of a
    # smoke-profile sweep must not move, which is what lets a serial path
    # pin its pool without changing a stored result.
    from repro.experiments import get_pretrained_bundle, get_profile
    from repro.sim import SimConfig
    from repro.tensor.random import RandomState
    from repro.training.evaluate import evaluate_multi

    bundle = get_pretrained_bundle(get_profile("smoke"), use_disk_cache=False)
    configs = [SimConfig(mode="noisy", noise_sigma=sigma) for sigma in (1.0, 2.0, 4.0)]
    accuracies = {}
    for threads in (1, 2):
        with worker_env.blas_pool_pinned(threads):
            accuracies[threads] = evaluate_multi(
                bundle.model, bundle.test_loader, configs,
                rngs=[RandomState(70 + k) for k in range(len(configs))],
            )
    assert accuracies[1] == accuracies[2]


def test_thread_variables_do_not_leak_out_of_the_tests_above():
    assert {
        name: os.environ.get(name) for name in worker_env.WORKER_THREAD_ENV
    } == _SESSION_THREAD_ENV


def test_blas_pool_does_not_leak_out_of_the_tests_above():
    assert worker_env.blas_threads() == _SESSION_POOL
