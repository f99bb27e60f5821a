"""Worker thread policy: one BLAS thread per worker process.

N worker processes on N cores, each running an N-thread BLAS pool,
oversubscribe the machine, so every worker pins its BLAS pools to one
thread.  BLAS reads these variables once, when numpy loads it, so they must
be set before ``numpy`` is imported: in the parent, for spawned children,
or first thing in a worker's own entry point.  That is also why this module
imports nothing outside the standard library.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

#: BLAS/OpenMP thread-count variables pinned in worker processes.
WORKER_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_worker_threads() -> Dict[str, Optional[str]]:
    """Set every BLAS thread variable to ``"1"``; return the previous values."""
    previous = {name: os.environ.get(name) for name in WORKER_THREAD_ENV}
    os.environ.update(dict.fromkeys(WORKER_THREAD_ENV, "1"))
    return previous


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
