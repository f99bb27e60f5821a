""":class:`EvalRequest` — one deduplicatable unit of serving work.

A request wraps exactly one :class:`~repro.experiments.runner.spec.ScenarioSpec`;
the spec's content hash *is* the request key.  That single decision buys the
whole serving story: two requests with the same key are the same work, so

* N in-flight identical requests share one execution (coalescing, see
  :mod:`repro.serve.coalescer`), and
* any request whose key is already in the content-addressed
  :class:`~repro.experiments.runner.store.ResultStore` is answered from disk
  without touching a model — identical configs cost one simulation ever.

Two wire forms are accepted by :meth:`EvalRequest.from_payload`:

``{"spec": {...}}``
    A raw :meth:`ScenarioSpec.as_dict` payload — any registered experiment
    scenario (``table1``, ``fig2``, ``selftest`` health probes, ...).

``{"profile": "fast", "sim": {...}, "num_repeats": 1}``
    The facade form: evaluate a :class:`~repro.sim.SimConfig` on a profile's
    pre-trained network.  Canonicalised through the runner's
    :func:`~repro.experiments.runner.scenarios.eval_scenario_spec`, which
    makes every keep-current field concrete before hashing, so the cache
    key never depends on server-side residue.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from threading import Event, Lock
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.experiments.runner.scenarios import eval_scenario_spec, needs_bundle
from repro.experiments.runner.spec import ScenarioSpec
from repro.sim import SimConfig

#: Request lifecycle states (``REJECTED`` only under backpressure).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
REJECTED = "rejected"

#: States from which a key may be resubmitted as new work.
RETRYABLE_STATES = (FAILED, REJECTED)

#: How a finished record got its result.
ORIGIN_CACHE = "cache"
ORIGIN_EXECUTED = "executed"


def _normalize_spec_dict(spec_dict: Mapping[str, Any]) -> Dict[str, Any]:
    """Accept mapping-valued ``params``/``overrides``/``sim`` on the wire.

    :meth:`ScenarioSpec.as_dict` serialises those fields as lists of pairs;
    hand-written client payloads naturally use JSON objects instead.
    ``from_dict`` would silently iterate a mapping's *keys* as pairs —
    corrupting the spec's identity — so coerce mappings to pair lists here.
    """
    normalized = dict(spec_dict)
    for name in ("params", "overrides", "sim"):
        value = normalized.get(name)
        if isinstance(value, Mapping):
            normalized[name] = [[key, value[key]] for key in sorted(value)]
    return normalized


@dataclass(frozen=True)
class EvalRequest:
    """An immutable evaluation request: a spec plus its derived identity."""

    spec: ScenarioSpec

    @property
    def key(self) -> str:
        """The coalescing / store key — the spec's content hash."""
        return self.spec.hash

    def label(self) -> str:
        return self.spec.label()

    @property
    def needs_model(self) -> bool:
        """Whether executing this request requires a pre-trained bundle."""
        return needs_bundle(self.spec.experiment)

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "EvalRequest":
        """Parse a submit payload (either wire form) into a request.

        Raises ``ValueError``/``KeyError`` on malformed payloads — the
        server turns those into error responses, never into crashes.
        """
        if "spec" in payload:
            spec = ScenarioSpec.from_dict(_normalize_spec_dict(payload["spec"]))
            needs_bundle(spec.experiment)  # raises KeyError on unknown ids
            return cls(spec=spec)
        if "sim" in payload or "profile" in payload:
            sim = SimConfig.from_dict(payload.get("sim") or {})
            seed = payload.get("seed")
            return cls(
                spec=eval_scenario_spec(
                    payload.get("profile") or "fast",
                    sim,
                    num_repeats=int(payload.get("num_repeats", 1)),
                    seed=None if seed is None else int(seed),
                    method=str(payload.get("method", "evaluate")),
                )
            )
        raise ValueError(
            "submit payload must carry either a 'spec' dict or a "
            "'profile'/'sim' evaluation request"
        )


class RequestRecord:
    """Mutable tracking state for one request key.

    One record is shared by every client whose request coalesced onto the
    key; completion is broadcast through a :class:`threading.Event`, which
    threads block on (:meth:`wait`), and through done-callbacks, which the
    asyncio front end uses to wait without parking a thread.  All
    transitions are lock-protected and monotonic (``queued -> running ->
    done|failed``; ``rejected`` is terminal).
    """

    def __init__(self, request: EvalRequest):
        self.request = request
        self.state = QUEUED
        self.origin: Optional[str] = None
        self.result: Optional[Dict[str, Any]] = None
        self.error: Optional[str] = None
        self.created_s = time.perf_counter()
        self.finished_s: Optional[float] = None
        self._done = Event()
        self._lock = Lock()
        self._callbacks: List[Callable[[], None]] = []

    @property
    def key(self) -> str:
        return self.request.key

    def is_finished(self) -> bool:
        return self.state in (DONE, FAILED, REJECTED)

    def is_in_flight(self) -> bool:
        return self.state in (QUEUED, RUNNING)

    @property
    def latency_s(self) -> Optional[float]:
        """Submit-to-finish latency, or ``None`` while in flight."""
        if self.finished_s is None:
            return None
        return self.finished_s - self.created_s

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def mark_running(self) -> None:
        with self._lock:
            if self.state == QUEUED:
                self.state = RUNNING

    def resolve(self, result: Dict[str, Any], origin: str) -> None:
        with self._lock:
            self.result = result
            self.origin = origin
            self.state = DONE
            self.finished_s = time.perf_counter()
        self._finish()

    def fail(self, error: str, state: str = FAILED) -> None:
        with self._lock:
            self.error = error
            self.state = state
            self.finished_s = time.perf_counter()
        self._finish()

    def _finish(self) -> None:
        self._done.set()
        with self._lock:
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the record finishes; ``False`` on timeout."""
        return self._done.wait(timeout)

    def add_done_callback(self, callback: Callable[[], None]) -> None:
        """Call ``callback()`` once the record finishes: on the finishing
        thread, or at once if it already has."""
        with self._lock:
            if not self._done.is_set():
                self._callbacks.append(callback)
                return
        callback()

    def remove_done_callback(self, callback: Callable[[], None]) -> None:
        """Forget a callback that has not run (a waiter gave up)."""
        with self._lock:
            if callback in self._callbacks:
                self._callbacks.remove(callback)

    # ------------------------------------------------------------------
    # Wire form
    # ------------------------------------------------------------------
    def as_payload(self, include_result: bool = True) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "key": self.key,
            "label": self.request.label(),
            "state": self.state,
            "origin": self.origin,
        }
        latency = self.latency_s
        if latency is not None:
            payload["latency_s"] = latency
        if self.error is not None:
            payload["error"] = self.error
        if include_result and self.result is not None:
            payload["result"] = self.result
        return payload


#: How many of the latest latencies a :class:`LatencyStat` keeps for its
#: percentiles.
LATENCY_WINDOW = 1024


@dataclass
class LatencyStat:
    """Streaming latency aggregate for one origin class.

    ``count``, ``mean_s`` and ``max_s`` cover every recorded latency; the
    percentiles cover the last :data:`LATENCY_WINDOW`, so a long-lived
    server holds bounded memory and reports its recent tail.
    """

    count: int = 0
    total_s: float = 0.0
    max_s: float = 0.0
    recent: deque = field(default_factory=lambda: deque(maxlen=LATENCY_WINDOW), repr=False)
    _lock: Lock = field(default_factory=Lock, repr=False)

    def record(self, latency_s: float) -> None:
        with self._lock:
            self.count += 1
            self.total_s += latency_s
            self.max_s = max(self.max_s, latency_s)
            self.recent.append(latency_s)

    def as_dict(self) -> Dict[str, float]:
        """Count, mean and max, and the nearest-rank p50, p95 and p99 of the
        window (0.0 before the first latency)."""
        with self._lock:
            mean = self.total_s / self.count if self.count else 0.0
            window = sorted(self.recent)
            stats = {"count": self.count, "mean_s": mean, "max_s": self.max_s}
        for percent in (50, 95, 99):
            rank = math.ceil(percent / 100 * len(window))
            stats[f"p{percent}_s"] = window[rank - 1] if window else 0.0
        return stats
