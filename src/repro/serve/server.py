"""The evaluation service and its asyncio socket front end.

Layering (front to back)::

    EvalServer          asyncio JSON-lines TCP protocol (submit/status/...)
      -> EvalService    coalescing, store cache hits, backpressure, counters
        -> ExecutionEngine   queue thread i -> worker process i
          -> worker process  own execution context, LRU-bounded bundles

Request lifecycle inside :meth:`EvalService.submit` (one table-lock pass,
so concurrent identical submits cannot double-execute):

1. the request key (spec hash) joins an in-flight record if one exists —
   that submit *coalesces*: no queue entry, no model, it just shares the
   eventual result;
2. a fresh key is first checked against the content-addressed
   :class:`~repro.experiments.runner.store.ResultStore` — a hit resolves
   immediately (``origin="cache"``) without touching any model;
3. otherwise the record enters the bounded execution queue — or is
   rejected on the spot when the queue is full (backpressure: the client
   sees ``state="rejected"`` instead of the server buffering unboundedly).

Queue threads drain the queue through the
:class:`~repro.serve.pool.ExecutionEngine`, each into its own worker
process; every successful execution is persisted to the store before the
record resolves, so the next identical request — this process or any later
one — is a cache hit.
"""

from __future__ import annotations

import asyncio
import json
import queue
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Set

from repro.experiments.runner.executor import WorkerError
from repro.experiments.runner.store import ResultStore, default_store
from repro.serve.coalescer import RequestTable
from repro.serve.pool import ExecutionEngine
from repro.serve.request import (
    ORIGIN_CACHE,
    ORIGIN_EXECUTED,
    REJECTED,
    EvalRequest,
    LatencyStat,
    RequestRecord,
)
from repro.utils.logging import get_logger

LOGGER = get_logger("repro.serve")


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one :class:`EvalService` / :class:`EvalServer` instance."""

    host: str = "127.0.0.1"
    port: int = 8642
    #: Workers: that many queue-draining threads, each running its
    #: scenarios in a worker *process* of its own — one
    #: :class:`repro.context.ExecutionContext` per process, so K distinct
    #: requests run ``min(K, workers)``-wide with no global lock.
    workers: int = 1
    #: LRU bound on the pre-trained bundles (one per profile token) each
    #: worker process keeps resident.
    max_models: int = 2
    #: Bounded execution queue — submits beyond this are rejected, not
    #: buffered (backpressure).
    queue_size: int = 64
    #: Default wait bound for blocking ``submit``/``result`` calls.
    default_timeout_s: float = 300.0
    #: Finished-record history kept for status/result lookups.
    max_history: int = 1024


class EvalService:
    """Coalescing, caching, backpressured evaluation service (no sockets)."""

    def __init__(
        self,
        config: ServeConfig = ServeConfig(),
        store: Optional[ResultStore] = None,
    ):
        self.config = config
        self.store = store if store is not None else default_store()
        self.engine: Optional[ExecutionEngine] = None
        self.table = RequestTable(max_history=config.max_history)
        self._queue: "queue.Queue[RequestRecord]" = queue.Queue(maxsize=config.queue_size)
        self._workers: list = []
        self._stop = threading.Event()
        self._counter_lock = threading.Lock()
        self.counters: Dict[str, int] = {
            "submitted": 0,
            "coalesced": 0,
            "cache_hits": 0,
            "executed": 0,
            "failed": 0,
            "rejected": 0,
        }
        self.latency: Dict[str, LatencyStat] = {
            ORIGIN_CACHE: LatencyStat(),
            ORIGIN_EXECUTED: LatencyStat(),
        }
        #: Executions per queue-draining worker thread, for the stats op —
        #: the observable proof that >1 workers actually share the load.
        self._executed_per_worker: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._workers:
            return
        self._stop.clear()
        self.engine = ExecutionEngine(
            self.config.workers, store_root=self.store.root, max_models=self.config.max_models
        )
        for index in range(max(1, self.config.workers)):
            worker = threading.Thread(
                target=self._worker_loop, args=(index,), name=f"repro-serve-{index}", daemon=True
            )
            worker.start()
            self._workers.append(worker)

    def stop(self) -> None:
        self._stop.set()
        # Terminating the worker processes fails whatever they were running,
        # so a busy thread wakes at once; an idle one sees the flag within
        # one 0.2 s queue poll.
        if self.engine is not None:
            self.engine.shutdown()
        deadline = time.monotonic() + 1.0
        for worker in self._workers:
            worker.join(timeout=max(0.0, deadline - time.monotonic()))
        self._workers.clear()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, payload: Mapping[str, Any]) -> RequestRecord:
        """Submit a request payload; returns its (possibly shared) record."""
        request = EvalRequest.from_payload(payload)
        self._bump("submitted")

        def on_create(record: RequestRecord) -> None:
            # Runs inside the table lock: the created record is routed
            # (cache hit / queued / rejected) before any other submitter of
            # the same key can observe it.
            cached = self.store.get(request.spec)
            if cached is not None:
                record.resolve(cached, origin=ORIGIN_CACHE)
                self._bump("cache_hits")
                self._record_latency(record)
                return
            try:
                self._queue.put_nowait(record)
            except queue.Full:
                record.fail(
                    f"rejected: execution queue is full "
                    f"({self.config.queue_size} pending)",
                    state=REJECTED,
                )
                self._bump("rejected")

        record, created = self.table.join_or_create(request, on_create=on_create)
        if not created:
            # Joined an existing record — in flight (true coalescing) or
            # already finished (served from history); either way no new work.
            self._bump("coalesced")
        return record

    def get_record(self, key: str) -> Optional[RequestRecord]:
        return self.table.get(key)

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    def _worker_loop(self, slot: int) -> None:
        while not self._stop.is_set():
            try:
                record = self._queue.get(timeout=0.2)
            except queue.Empty:
                continue
            try:
                self._execute_record(record, slot)
            finally:
                self._queue.task_done()

    def _execute_record(self, record: RequestRecord, slot: int) -> None:
        record.mark_running()
        request = record.request
        try:
            result = self.engine.execute(slot, request.spec, request.needs_model)
            clean = self.store.put(request.spec, result)
        except Exception as error:  # noqa: BLE001 — server must not die
            # A worker error already reads "<type>: <message>".
            message = (
                str(error) if isinstance(error, WorkerError)
                else f"{type(error).__name__}: {error}"
            )
            LOGGER.warning("request %s failed: %s", request.label(), message)
            self._bump("failed")
            record.fail(message)
            return
        # Count the execution before the record wakes its waiters, so a
        # client that holds its answer reads stats that already include it.
        worker_name = threading.current_thread().name
        with self._counter_lock:
            self.counters["executed"] += 1
            self._executed_per_worker[worker_name] = (
                self._executed_per_worker.get(worker_name, 0) + 1
            )
        self.latency[ORIGIN_EXECUTED].record(time.perf_counter() - record.created_s)
        record.resolve(clean, origin=ORIGIN_EXECUTED)

    # ------------------------------------------------------------------
    # Stats / GC
    # ------------------------------------------------------------------
    def _bump(self, counter: str) -> None:
        with self._counter_lock:
            self.counters[counter] += 1

    def _record_latency(self, record: RequestRecord) -> None:
        latency = record.latency_s
        if latency is None or record.origin is None:
            return
        self.latency[record.origin].record(latency)

    def stats(self) -> Dict[str, Any]:
        with self._counter_lock:
            counters = dict(self.counters)
            executed_per_worker = dict(self._executed_per_worker)
        return {
            "counters": counters,
            "queue_depth": self._queue.qsize(),
            "in_flight": self.table.in_flight(),
            "history": len(self.table),
            "workers": {
                "count": len(self._workers),
                "configured": self.config.workers,
                "executed_per_worker": executed_per_worker,
            },
            "latency": {
                origin: stat.as_dict() for origin, stat in self.latency.items()
            },
        }

    def gc(self, dry_run: bool = False) -> Dict[str, Any]:
        """Prune store results no registered grid *or live request* produces.

        Reuses :meth:`ResultStore.gc` with the live set extended by every
        key the request table remembers — a result just served (or about to
        land) must never be collected out from under its record.
        """
        from repro.experiments.registry import registered_spec_hashes

        live = set(registered_spec_hashes()) | set(self.table.keys())
        report = self.store.gc(live, dry_run=dry_run)
        return {
            "dry_run": report.dry_run,
            "kept": report.kept,
            "pruned": len(report.pruned),
            "summary": report.summary(),
        }


class EvalServer:
    """Asyncio JSON-lines TCP front end over an :class:`EvalService`.

    Protocol: one JSON object per line in, one per line out.  Requests carry
    an ``op`` plus op-specific fields; responses always carry ``ok``:

    ``{"op": "submit", "spec": {...}} | {"op": "submit", "profile": ..., "sim": {...}}``
        Enqueue (or coalesce/answer) a request.  ``"wait": false`` returns
        immediately with the key and state; by default the call blocks until
        the record finishes (bounded by ``timeout_s``) and returns the result.
    ``{"op": "status", "key": ...}``
        The record's state, without the result body.
    ``{"op": "result", "key": ..., "timeout_s": ...}``
        Wait for and return the full record, result included.
    ``{"op": "stats"}``
        Counters, queue depth, workers and per-origin latency.
    ``{"op": "gc", "dry_run": true}``
        Run store garbage collection with live-request protection.

    Blocking waits are awaited on the event loop (:meth:`_wait`), so one
    slow simulation never stalls other clients' submits, and a shutdown
    never waits for a client's pending result.
    """

    def __init__(self, service: EvalService):
        self.service = service
        self._server: Optional[asyncio.AbstractServer] = None
        self._clients: Set[asyncio.Task] = set()

    @property
    def sockets(self):
        return self._server.sockets if self._server is not None else ()

    async def start(self) -> None:
        self.service.start()
        config = self.service.config
        self._server = await asyncio.start_server(
            self._accept, host=config.host, port=config.port
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            # End open connections here, before the service stops, rather
            # than leave them to the event loop's teardown.
            for task in self._clients:
                task.cancel()
            await asyncio.gather(*self._clients, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None
        self.service.stop()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    def _accept(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        # The server owns each connection's task.  Given a coroutine
        # function instead, asyncio makes the task itself and adds a
        # done-callback that calls ``task.exception()``, which raises on a
        # cancelled task and prints a traceback at Ctrl-C (Python 3.11).
        task = asyncio.get_running_loop().create_task(self._handle_client(reader, writer))
        self._clients.add(task)
        task.add_done_callback(self._forget)

    def _forget(self, task: asyncio.Task) -> None:
        self._clients.discard(task)
        if not task.cancelled() and task.exception() is not None:
            LOGGER.error("client connection failed", exc_info=task.exception())

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                response = await self._dispatch_line(line)
                writer.write(json.dumps(response).encode("utf-8") + b"\n")
                await writer.drain()
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch_line(self, line: bytes) -> Dict[str, Any]:
        try:
            message = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return {"ok": False, "error": f"malformed JSON: {error}"}
        if not isinstance(message, dict):
            return {"ok": False, "error": "request must be a JSON object"}
        try:
            return await self._dispatch(message)
        except (KeyError, ValueError, TypeError) as error:
            return {"ok": False, "error": f"{type(error).__name__}: {error}"}

    async def _dispatch(self, message: Dict[str, Any]) -> Dict[str, Any]:
        op = message.get("op", "submit")
        if op == "submit":
            return await self._op_submit(message)
        if op == "status":
            return self._op_status(message)
        if op == "result":
            return await self._op_result(message)
        if op == "stats":
            return {"ok": True, "stats": self.service.stats()}
        if op == "gc":
            return {"ok": True, "gc": self.service.gc(dry_run=bool(message.get("dry_run", False)))}
        return {"ok": False, "error": f"unknown op {op!r}"}

    async def _op_submit(self, message: Dict[str, Any]) -> Dict[str, Any]:
        record = self.service.submit(message)
        if not message.get("wait", True):
            return {"ok": True, **record.as_payload(include_result=False)}
        finished = await self._wait(record, message.get("timeout_s"))
        if not finished:
            return {"ok": False, "timeout": True, **record.as_payload(include_result=False)}
        return {"ok": True, **record.as_payload()}

    def _op_status(self, message: Dict[str, Any]) -> Dict[str, Any]:
        record = self._record_for(message)
        if record is None:
            return {"ok": False, "error": f"unknown key {message.get('key')!r}"}
        return {"ok": True, **record.as_payload(include_result=False)}

    async def _op_result(self, message: Dict[str, Any]) -> Dict[str, Any]:
        record = self._record_for(message)
        if record is None:
            return {"ok": False, "error": f"unknown key {message.get('key')!r}"}
        finished = await self._wait(record, message.get("timeout_s"))
        if not finished:
            return {"ok": False, "timeout": True, **record.as_payload(include_result=False)}
        return {"ok": True, **record.as_payload()}

    def _record_for(self, message: Dict[str, Any]) -> Optional[RequestRecord]:
        key = message.get("key")
        if not key:
            raise ValueError("missing 'key'")
        return self.service.get_record(str(key))

    async def _wait(self, record: RequestRecord, timeout_s: Any) -> bool:
        """Wait for ``record`` to finish; ``False`` on timeout.

        No thread is parked: the record's done-callback resolves a future of
        this call's own from the finishing worker thread.  A timeout or a
        cancelled connection drops only that future, never the record that
        coalesced clients share.
        """
        timeout = (
            self.service.config.default_timeout_s
            if timeout_s is None
            else float(timeout_s)
        )
        if record.is_finished():
            return True
        loop = asyncio.get_running_loop()
        finished = loop.create_future()

        def wake() -> None:
            try:
                loop.call_soon_threadsafe(_settle, finished)
            except RuntimeError:  # the loop has closed: nobody is waiting
                pass

        record.add_done_callback(wake)
        try:
            await asyncio.wait_for(finished, timeout)
            return True
        except asyncio.TimeoutError:
            return False
        finally:
            record.remove_done_callback(wake)


def _settle(future: "asyncio.Future[None]") -> None:
    if not future.done():
        future.set_result(None)
