"""``repro.serve`` — simulation-as-a-service over :mod:`repro.api`.

A long-lived concurrent evaluation server for the crossbar simulator: keep
the pre-trained models warm and answer many evaluation requests instead of
paying model construction and pre-training per experiment run.

The whole design rides on one identity: **a request is its scenario spec,
and the spec's content hash is the request key** (the same hash that keys
the content-addressed result store).  Identical work is therefore
recognisable *before* it runs:

* N concurrent identical requests coalesce onto one execution
  (:mod:`repro.serve.coalescer`) — the other N-1 wait on the shared record;
* a request whose result is already stored is answered from disk without
  touching any model (:class:`~repro.serve.server.EvalService`);
* distinct requests against the same profile share one resident
  pre-trained model copy, LRU-bounded (:class:`~repro.serve.pool.ModelPool`).

Concurrency model: the asyncio front end (:class:`~repro.serve.server.EvalServer`)
accepts any number of clients.  **Scaling out means processes, not
threads** — and with ``workers > 1`` the server actually does it: the
:class:`~repro.serve.pool.ExecutionEngine` dispatches each scenario to a
spawn pool of worker processes, each owning its own
:class:`repro.context.ExecutionContext` (compute-dtype policy, RNG
stream, bundle cache), so K distinct requests execute ``min(K, workers)``
wide with no global execution lock.  Threads would not work here even
with the context machinery: a simulation saturates its process (NumPy
compute holds the GIL for real work) and the pooled model object itself
is mutated during configuration, so in-process threading buys
interleaving, not speedup.  With ``workers == 1`` (default) execution is
inline and serialised behind the engine's lock — the single parent
context is shared state, and overlapping conflicting sessions on one
context is forbidden (:class:`repro.sim.ConcurrentDtypeError`).

Run it: ``python -m repro.serve --help``.
"""

from repro.serve.coalescer import RequestTable
from repro.serve.pool import ExecutionEngine, ModelPool
from repro.serve.request import (
    DONE,
    FAILED,
    ORIGIN_CACHE,
    ORIGIN_EXECUTED,
    QUEUED,
    REJECTED,
    RUNNING,
    EvalRequest,
    LatencyStat,
    RequestRecord,
)
from repro.serve.server import EvalServer, EvalService, ServeConfig

__all__ = [
    "DONE",
    "FAILED",
    "ORIGIN_CACHE",
    "ORIGIN_EXECUTED",
    "QUEUED",
    "REJECTED",
    "RUNNING",
    "EvalRequest",
    "EvalServer",
    "EvalService",
    "ExecutionEngine",
    "LatencyStat",
    "ModelPool",
    "RequestRecord",
    "RequestTable",
    "ServeConfig",
]
