"""The allocator and BLAS-thread policies of :mod:`repro.worker_env`."""

from __future__ import annotations

import ctypes
import os

import pytest

from repro import worker_env

#: The thread variables as the session had them when this module was collected.
_SESSION_THREAD_ENV = {name: os.environ.get(name) for name in worker_env.WORKER_THREAD_ENV}


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


def test_blas_pinned_reads_every_thread_variable(monkeypatch):
    for name in worker_env.WORKER_THREAD_ENV:
        monkeypatch.delenv(name, raising=False)
    assert not worker_env.blas_pinned()
    with worker_env.worker_threads_pinned():
        assert worker_env.blas_pinned()
        # Set directly, not through monkeypatch: monkeypatch would record the
        # pinned "1" as the value to restore and put it back at teardown, for
        # the rest of the session.  The context manager restores it on exit.
        os.environ["OPENBLAS_NUM_THREADS"] = "2"
        assert not worker_env.blas_pinned()
    assert not worker_env.blas_pinned()


def test_thread_variables_do_not_leak_out_of_the_tests_above():
    assert {
        name: os.environ.get(name) for name in worker_env.WORKER_THREAD_ENV
    } == _SESSION_THREAD_ENV
