""":mod:`repro.context` — the explicit execution context.

Everything mutable that used to live in module-level globals — the
compute-dtype policy, the library-wide default :class:`RandomState`, the
autograd grad-enabled flag and the pre-trained bundle cache — is carried by one
:class:`ExecutionContext` object, resolved through a
:class:`contextvars.ContextVar`.  The module-level entry points the rest of
the library (and its users) call — :func:`repro.tensor.dtype.set_compute_dtype`,
:func:`repro.tensor.random.manual_seed`, :func:`repro.tensor.tensor.no_grad`,
:func:`repro.experiments.common.get_pretrained_bundle` — are thin facades
over the *current* context.

Why a context and not globals: process-global state forces process-global
serialisation.  ``repro.serve`` had to run every simulation behind one
execution lock (and :class:`~repro.sim.Session` had to refuse overlapping
dtype policies with ``ConcurrentDtypeError``) because two concurrent
executions would clobber each other's dtype policy, RNG stream and cached
models.  With one context per thread/task/worker, concurrent executions
with *different* policies simply resolve different state — the serve layer
runs distinct requests in worker processes that each activate their own
context.

Resolution rule (what keeps the default behaviour bit-for-bit identical):

* a thread/task that never activates a context resolves the **process
  default context** — one shared object, exactly as global state behaved;
* :func:`activate_context` installs a context for the current thread/task
  (worker processes call this once at bootstrap);
* :func:`use_context` scopes a context to a ``with`` block.

``contextvars`` semantics make the isolation free: a value set in one
thread is invisible to every other thread, and asyncio tasks inherit the
context of wherever they were scheduled from.

A context object itself is shared by every thread that resolves it (all
unbound threads share the process default; a helper thread started under
:func:`contextvars.copy_context` shares its parent's), so nothing scoped to
one thread may be written onto it.  The grad flag is the example:
``grad_enabled`` is the context's *default*, and
:func:`repro.tensor.tensor.no_grad` overrides it for the calling
thread/task only, through its own ``ContextVar``, so one thread inside
``no_grad()`` never stops another from recording its graph.
"""

from __future__ import annotations

import contextlib
import threading
from collections import OrderedDict
from contextvars import ContextVar
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

#: The dtypes the compute policy accepts, keyed by canonical name.
COMPUTE_DTYPES = {
    "float32": np.dtype(np.float32),
    "float64": np.dtype(np.float64),
}

#: Canonical name of the default policy (the historical behaviour).
DEFAULT_COMPUTE_DTYPE = "float64"


def canonical_dtype_name(dtype: Any) -> str:
    """Canonical policy name (``"float32"`` / ``"float64"``) of ``dtype``.

    Accepts a name, a numpy dtype, or a numpy scalar type; anything outside
    the supported compute dtypes is rejected loudly — the policy exists to
    make dtype decisions explicit, not to silently absorb exotic types.
    """
    if isinstance(dtype, str):
        name = dtype
    else:
        name = np.dtype(dtype).name
    if name not in COMPUTE_DTYPES:
        raise ValueError(
            f"unsupported compute dtype {dtype!r}; expected one of "
            f"{sorted(COMPUTE_DTYPES)}"
        )
    return name


class BoundedCache:
    """A tiny LRU-bounded mapping for derived per-context caches.

    Used for memoisations that are cheap to recompute but would otherwise
    grow with every distinct key ever seen (e.g. fig2's per-architecture
    encoded-layer counts).  Not thread-safe on its own; contexts are meant
    to be owned by one thread/task at a time, and the shared default
    context's uses are read-mostly memoisations where a racing double
    compute is harmless.
    """

    def __init__(self, max_entries: int = 8):
        if max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Any) -> bool:
        return key in self._entries

    def get(self, key: Any, default: Any = None) -> Any:
        if key not in self._entries:
            return default
        self._entries.move_to_end(key)
        return self._entries[key]

    def put(self, key: Any, value: Any) -> Any:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return value


class ExecutionContext:
    """One execution's mutable state, bundled and explicitly scoped.

    Fields (each formerly a module-level global):

    ``dtype``
        The compute-dtype policy (was ``repro.tensor.dtype._COMPUTE_DTYPE``).
        Read through :attr:`dtype` / mutated through :meth:`set_dtype`.
    ``rng``
        The default :class:`~repro.tensor.random.RandomState` that seeded
        components fall back to (was ``repro.tensor.random._DEFAULT``).
        Created lazily so constructing a context is import-cycle free.
    ``grad_enabled``
        The autograd recording flag's default (was
        ``repro.tensor.tensor._GRAD_ENABLED``); ``no_grad()`` overrides it
        per thread/task and never writes it.
    ``bundles``
        The pre-trained bundle cache, keyed by profile token (was
        ``repro.experiments.common._BUNDLE_CACHE``).  Keyed access goes
        through :func:`repro.experiments.common.get_pretrained_bundle` /
        ``evict_bundle`` so bounded holders (a worker process's bundle
        cache) can actually release memory.

    A context also carries named :class:`BoundedCache` instances for small
    derived memoisations (:meth:`bounded_cache`) and the bookkeeping for
    :class:`repro.sim.Session`'s dtype-conflict guard, which is now scoped
    to the context: sessions in *different* contexts can hold different
    dtypes concurrently; only sessions sharing one context must agree.
    """

    def __init__(
        self,
        dtype: Any = DEFAULT_COMPUTE_DTYPE,
        seed: int = 0,
        grad_enabled: bool = True,
        name: Optional[str] = None,
    ):
        self._dtype = COMPUTE_DTYPES[canonical_dtype_name(dtype)]
        self._seed = seed
        self._rng = None
        self.grad_enabled = bool(grad_enabled)
        self.bundles: Dict[str, Any] = {}
        self.name = name
        self._caches: Dict[str, BoundedCache] = {}
        # Session dtype-conflict guard, one per context (see repro.sim.session).
        self._dtype_lock = threading.Lock()
        self._dtype_sessions: Dict[int, str] = {}

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<ExecutionContext{label} dtype={self._dtype.name} "
            f"grad={self.grad_enabled} bundles={len(self.bundles)}>"
        )

    # ------------------------------------------------------------------
    # Compute dtype policy
    # ------------------------------------------------------------------
    @property
    def dtype(self) -> np.dtype:
        """This context's compute dtype as a numpy dtype."""
        return self._dtype

    @property
    def dtype_name(self) -> str:
        return self._dtype.name

    def set_dtype(self, dtype: Any) -> np.dtype:
        """Install a new compute dtype on this context; returns the previous.

        Only newly materialised arrays are affected — existing tensors keep
        their storage.
        """
        previous = self._dtype
        self._dtype = COMPUTE_DTYPES[canonical_dtype_name(dtype)]
        return previous

    # ------------------------------------------------------------------
    # Default RNG
    # ------------------------------------------------------------------
    @property
    def rng(self):
        """The context's default random state (lazily constructed)."""
        if self._rng is None:
            from repro.tensor.random import RandomState

            self._rng = RandomState(self._seed)
        return self._rng

    # ------------------------------------------------------------------
    # Derived caches
    # ------------------------------------------------------------------
    def bounded_cache(self, name: str, max_entries: int = 8) -> BoundedCache:
        """The named LRU cache of this context, created on first use."""
        cache = self._caches.get(name)
        if cache is None:
            cache = self._caches[name] = BoundedCache(max_entries)
        return cache

    # ------------------------------------------------------------------
    # Session dtype guard (used by repro.sim.session)
    # ------------------------------------------------------------------
    def claim_dtype(self, owner: int, dtype_name: str) -> List[str]:
        """Try to register a dtype-holding session on this context.

        Returns the sorted list of *conflicting* dtype names other live
        sessions of this context hold — empty means the claim succeeded.
        Sessions on different contexts never see each other here; that is
        the whole point of context-local policies.
        """
        with self._dtype_lock:
            conflicting = sorted(
                {d for d in self._dtype_sessions.values() if d != dtype_name}
            )
            if conflicting:
                return conflicting
            self._dtype_sessions[owner] = dtype_name
            return []

    def release_dtype(self, owner: int) -> None:
        with self._dtype_lock:
            self._dtype_sessions.pop(owner, None)

    def active_dtype_sessions(self) -> Dict[int, str]:
        """A copy of the live dtype-holding sessions (for tests/introspection)."""
        with self._dtype_lock:
            return dict(self._dtype_sessions)

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def derive(self, **overrides: Any) -> "ExecutionContext":
        """A fresh context inheriting this one's policies (not its state).

        The child starts with the parent's dtype and grad flag, its own RNG
        (seeded by ``seed``, default 0), an empty bundle cache and empty
        derived caches — isolation by construction, so nothing the child
        does can leak back into the parent.
        """
        kwargs: Dict[str, Any] = {
            "dtype": self._dtype,
            "grad_enabled": self.grad_enabled,
        }
        kwargs.update(overrides)
        return ExecutionContext(**kwargs)


#: The per-thread/task binding.  ``None`` means "use the process default".
_CURRENT: "ContextVar[Optional[ExecutionContext]]" = ContextVar(
    "repro_execution_context", default=None
)

#: The process default context — the single sanctioned root of mutable
#: state, reproducing the historical module-global behaviour bit for bit
#: for every caller that never opts into an explicit context.
_DEFAULT_CONTEXT = ExecutionContext(name="process-default")


def default_context() -> ExecutionContext:
    """The process-wide default execution context."""
    return _DEFAULT_CONTEXT


def current_context() -> ExecutionContext:
    """The context the calling thread/task currently resolves.

    Falls back to the shared process default when no context was activated
    — which is how the facade functions reproduce the old global-state
    behaviour exactly.
    """
    context = _CURRENT.get()
    return context if context is not None else _DEFAULT_CONTEXT


def activate_context(context: ExecutionContext) -> ExecutionContext:
    """Install ``context`` as the current one (no automatic restore).

    Meant for process/thread bootstrap — e.g. the scenario runner's worker
    loop activates one fresh context per worker process.  For
    scoped use, prefer :func:`use_context`.
    """
    _CURRENT.set(context)
    return context


@contextlib.contextmanager
def use_context(context: ExecutionContext) -> Iterator[ExecutionContext]:
    """Scope ``context`` to a ``with`` block, restoring the previous binding."""
    token = _CURRENT.set(context)
    try:
        yield context
    finally:
        _CURRENT.reset(token)


def fresh_context(**kwargs: Any) -> ExecutionContext:
    """A new isolated :class:`ExecutionContext` (convenience constructor)."""
    return ExecutionContext(**kwargs)


__all__ = [
    "COMPUTE_DTYPES",
    "DEFAULT_COMPUTE_DTYPE",
    "BoundedCache",
    "ExecutionContext",
    "activate_context",
    "canonical_dtype_name",
    "current_context",
    "default_context",
    "fresh_context",
    "use_context",
]
