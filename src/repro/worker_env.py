"""Process policies for threads and memory: BLAS pinning and the allocator.

**BLAS threads.** N worker processes on N cores, each running an N-thread
BLAS pool, oversubscribe the machine, so every worker pins its BLAS pools to
one thread.  BLAS reads these variables once, when numpy loads it, so they
must be set before ``numpy`` is imported: in the parent, for spawned
children, or first thing in a worker's own entry point.  That is also why
this module imports nothing outside the standard library.

A process whose numpy is already loaded resizes its pool directly:
:func:`blas_threads` reads the effective size of numpy's bundled OpenBLAS
pool through :mod:`ctypes`, and :func:`blas_pool_pinned` sets it for a block
and restores it on exit.  The library is located from numpy's install path
without importing numpy.  :func:`blas_pinned` answers from that pool, and
from the variables only where no bundled OpenBLAS is found.  The gated
benchmarks measure inside :func:`blas_pool_pinned` and record the size read
back: each gate is the median of N alternating pairs at a pinned 1-thread
pool (``benchmarks/conftest.py``).

**Allocator.** :func:`keep_heap_resident` fixes glibc's two heap thresholds
for the process.  Once a second thread allocates (GBO training's helper
thread, see :mod:`repro.core.gbo`), glibc keeps handing the freed top of the
main heap back to the kernel ("trimming") and the next step's arrays fault
their pages in again: about 600K minor faults per ``run_gbo`` on the
training thread, against under 1K without the helper.  Setting
``M_MMAP_THRESHOLD`` to 32 MiB (arrays below it come from the heap, not
from ``mmap``) together with ``M_TRIM_THRESHOLD`` to 256 MiB (free top
memory below it stays mapped) stops that.  Both must be set: setting only
the trim threshold freezes the mmap threshold at its 128 KiB start and the
faults get worse.  The policy is a pair of constants, holds no state, may be
applied any number of times, and does nothing where the C library has no
``mallopt``.
"""

from __future__ import annotations

import ctypes
import glob
import importlib.util
import os
from contextlib import contextmanager
from functools import lru_cache
from typing import Dict, Iterator, Optional

#: BLAS/OpenMP thread-count variables pinned in worker processes.
WORKER_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: glibc ``mallopt`` settings of :func:`keep_heap_resident`, as
#: ``(parameter, value)``: ``M_MMAP_THRESHOLD`` (-3) and ``M_TRIM_THRESHOLD``
#: (-1) from ``malloc.h``.
HEAP_POLICY = ((-3, 32 << 20), (-1, 256 << 20))


def pin_worker_threads() -> Dict[str, Optional[str]]:
    """Set every BLAS thread variable to ``"1"``; return the previous values."""
    previous = {name: os.environ.get(name) for name in WORKER_THREAD_ENV}
    os.environ.update(dict.fromkeys(WORKER_THREAD_ENV, "1"))
    return previous


@lru_cache(maxsize=None)
def _openblas() -> Optional[ctypes.CDLL]:
    """numpy's bundled OpenBLAS (``numpy.libs/libscipy_openblas64_*.so``),
    or ``None`` where there is none (no numpy, or another BLAS).

    Loading it before numpy does is harmless: numpy's extension then links
    against the very same library, which reads the thread variables once,
    whoever loads it first.
    """
    spec = importlib.util.find_spec("numpy")
    if spec is None or not spec.submodule_search_locations:
        return None
    site = os.path.dirname(list(spec.submodule_search_locations)[0])
    for path in sorted(glob.glob(os.path.join(site, "numpy.libs", "libscipy_openblas64_*.so"))):
        try:
            library = ctypes.CDLL(path)
            get, set_ = (
                library.scipy_openblas_get_num_threads64_,
                library.scipy_openblas_set_num_threads64_,
            )
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = (), ctypes.c_int
        set_.argtypes, set_.restype = (ctypes.c_int,), None
        return library
    return None


def blas_threads() -> Optional[int]:
    """The effective thread count of numpy's OpenBLAS pool, read from the
    library itself; ``None`` where it is not found."""
    library = _openblas()
    return None if library is None else int(library.scipy_openblas_get_num_threads64_())


@contextmanager
def blas_pool_pinned(threads: int = 1) -> Iterator[Optional[int]]:
    """Resize this process's OpenBLAS pool to ``threads`` for the block.

    Yields the size read back (``None`` where the library is not found, in
    which case nothing changes) and restores the previous size on exit, also
    when the block raises.  Resize only while no other thread of the process
    is inside a BLAS call.
    """
    library = _openblas()
    if library is None:
        yield None
        return
    previous = blas_threads()
    library.scipy_openblas_set_num_threads64_(threads)
    try:
        yield blas_threads()
    finally:
        library.scipy_openblas_set_num_threads64_(previous)


def blas_pinned() -> bool:
    """Whether this process's BLAS runs one thread.

    Reads numpy's OpenBLAS pool (:func:`blas_threads`); where that library
    is not found, whether the thread variables pin BLAS to one thread, as
    :func:`pin_worker_threads` does.
    """
    threads = blas_threads()
    if threads is not None:
        return threads == 1
    return all(os.environ.get(name) == "1" for name in WORKER_THREAD_ENV)


@contextmanager
def worker_threads_pinned() -> Iterator[None]:
    """Pin the BLAS thread variables for the block, then restore them.

    Processes started inside the block inherit the pin; the calling
    process's own BLAS pool, already loaded, keeps its size.
    """
    previous = pin_worker_threads()
    try:
        yield
    finally:
        for name, value in previous.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def keep_heap_resident() -> bool:
    """Apply :data:`HEAP_POLICY` through ``mallopt``; ``True`` if it took.

    Idempotent.  ``False`` where the C library has no ``mallopt`` (not
    glibc; nothing changes) or rejects one of the values.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return all(mallopt(parameter, value) == 1 for parameter, value in HEAP_POLICY)
