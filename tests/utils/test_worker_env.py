"""The allocator and BLAS-thread policies of :mod:`repro.worker_env`."""

from __future__ import annotations

import ctypes

import pytest

from repro import worker_env


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
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert not worker_env.blas_pinned()
    assert not worker_env.blas_pinned()
