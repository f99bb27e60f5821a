""":class:`Session` — apply a :class:`~repro.sim.config.SimConfig` atomically.

A :class:`Session` applies a config to a model's encoded layers for the
duration of a block:

* **validate-then-mutate** — :func:`apply_config` checks the entire config
  against the target (mode known, GBO enabled where required, schedule
  length matching, engine registered) before touching a single layer, so a
  bad config can never leave a model half-configured;
* **restore on exit** — entering a session snapshots every encoded layer's
  simulation state (mode, pulses, sigma, relative flag, PLA mode, engine
  pin) and restores it on exit, even when the body raises;
* **context binding** — a session runs against the caller's current
  :class:`repro.context.ExecutionContext` (bind another with
  :func:`repro.context.use_context`).  The config's dtype policy is applied
  to (and restored on) that context, never to process-wide state.

Targets are duck-typed: anything exposing ``encoded_layers()`` (models) or
looking like a single encoded layer works.  Per-layer settings are config
values, not targets: a tuple ``pulses`` or ``noise_sigma`` gives each layer
its own, so Fig. 2's "only layer i is noisy" is one whole-model config.

Concurrency: because the dtype policy is context-local, two sessions
running concurrently in *different* contexts may hold different dtypes —
that is the sanctioned parallel path (one context per serve worker
process or per explicitly bound thread).  Overlapping sessions that share
one context must still agree on a dtype; a conflicting overlap raises
:class:`ConcurrentDtypeError` before any state is touched, because the
later ``__exit__`` would otherwise restore a stale policy onto the shared
context.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.context import ExecutionContext, current_context
from repro.sim.config import SimConfig
from repro.tensor.dtype import canonical_dtype_name
from repro.utils.seed import seed_everything


class ConcurrentDtypeError(RuntimeError):
    """Two overlapping same-context sessions tried conflicting compute dtypes."""


def encoded_layers_of(target: Any) -> List[Any]:
    """The encoded layers a config applies to (a model's, or the layer itself)."""
    if hasattr(target, "encoded_layers"):
        layers = list(target.encoded_layers())
        if not layers:
            raise ValueError(f"{type(target).__name__} exposes no encoded layers to configure")
        return layers
    if hasattr(target, "_apply_mode"):
        return [target]
    raise TypeError(
        f"cannot configure {type(target).__name__}: expected a model with "
        f"encoded_layers() or a single encoded layer"
    )


@dataclass
class _LayerSimState:
    """Snapshot of one layer's simulation-relevant attributes."""

    mode: str
    num_pulses: int
    noise_sigma: float
    sigma_relative_to_fan_in: bool
    pla_mode: str
    engine: Any  # pinned engine instance, or None (unpinned)


def capture_sim_state(target: Any) -> List[_LayerSimState]:
    """Snapshot the simulation state of every encoded layer of ``target``."""
    return [
        _LayerSimState(
            mode=layer.mode,
            num_pulses=layer.num_pulses,
            noise_sigma=layer.noise_sigma,
            sigma_relative_to_fan_in=layer.sigma_relative_to_fan_in,
            pla_mode=layer.pla_mode,
            engine=layer._engine,
        )
        for layer in encoded_layers_of(target)
    ]


def restore_sim_state(target: Any, states: Sequence[_LayerSimState]) -> None:
    """Restore a snapshot taken by :func:`capture_sim_state`."""
    layers = encoded_layers_of(target)
    if len(layers) != len(states):
        raise ValueError(
            f"snapshot holds {len(states)} layer states but the target now "
            f"exposes {len(layers)} encoded layers"
        )
    for layer, state in zip(layers, states):
        layer._apply_engine(state.engine)
        layer._apply_noise(state.noise_sigma, state.sigma_relative_to_fan_in)
        layer._apply_pulses(state.num_pulses)
        layer._apply_pla_mode(state.pla_mode)
        layer._apply_mode(state.mode)


def per_layer(value: Any, num_layers: int, field: str) -> Optional[List[Any]]:
    """A config field's value at each of ``num_layers`` layers.

    A tuple holds one entry per layer and must match the layer count; a
    scalar applies to every layer; ``None`` (keep current) stays ``None``.
    """
    if value is None:
        return None
    if isinstance(value, tuple):
        if len(value) != num_layers:
            raise ValueError(
                f"config {field} has {len(value)} entries but the "
                f"target exposes {num_layers} encoded layers"
            )
        return list(value)
    return [value] * num_layers


def apply_config(target: Any, config: SimConfig, profile: Any = None) -> None:
    """Apply ``config`` to every encoded layer of ``target`` — atomically.

    The whole config is validated against the target first; only then are
    the layers mutated (through their internal appliers).
    ``config.engine is None`` leaves the layers' engine
    pins untouched (see the engine-resolution rule in
    :mod:`repro.sim.config`); a set engine is resolved through the registry
    and pinned on every layer.  ``profile`` only informs engine resolution
    and is never required.
    """
    layers = encoded_layers_of(target)

    # -- validate everything up front (atomicity: nothing mutated on error)
    engine = None
    if config.engine is not None:
        from repro.backend import get_engine

        engine = get_engine(config.resolved_engine(profile))
    schedule = per_layer(config.pulses, len(layers), "pulses")
    sigmas = per_layer(config.noise_sigma, len(layers), "noise_sigma")
    if config.mode == "gbo":
        for index, layer in enumerate(layers):
            if getattr(layer, "gbo_logits", None) is None:
                raise ValueError(
                    f"config requests gbo mode but layer {index} has no GBO "
                    f"logits; call enable_gbo() first"
                )

    # -- apply
    for index, layer in enumerate(layers):
        if engine is not None:
            layer._apply_engine(engine)
        layer._apply_noise(sigmas[index], config.sigma_relative_to_fan_in)
        if schedule is not None:
            layer._apply_pulses(schedule[index])
        if config.pla_mode is not None:
            layer._apply_pla_mode(config.pla_mode)
        layer._apply_mode(config.mode)
    if config.dtype is not None:
        # Context-local by design: the compute dtype governs every array the
        # current context materialises.  Session restores the previous
        # policy on exit.
        current_context().set_dtype(config.dtype)


class Session:
    """Context manager scoping a :class:`SimConfig` to a ``with`` block.

    Entering applies the config atomically (and, when ``config.seed`` is
    set, seeds the bound context's RNG stream — the config's seed policy);
    exiting restores every layer's previous simulation state, whether the
    body completed or raised.  The configured target is returned from
    ``__enter__`` for convenience::

        with Session(model, SimConfig(mode="noisy", noise_sigma=5.0, pulses=8)):
            accuracy = evaluate_accuracy(model, loader)
        # model is back in whatever state it had before the block

    The session binds to the caller's current
    :class:`~repro.context.ExecutionContext`.  Two threads each bound to
    their *own* context (:func:`repro.context.use_context`) may run
    sessions with different compute dtypes concurrently — the case the old
    process-global policy had to forbid.
    """

    def __init__(
        self,
        target: Any,
        config: SimConfig,
        profile: Any = None,
    ):
        self.target = target
        self.config = config
        self.profile = profile
        self._bound: Optional[ExecutionContext] = None
        self._saved: Optional[List[_LayerSimState]] = None
        self._saved_dtype: Optional[str] = None
        self._holds_dtype = False

    def _register_dtype(self) -> None:
        """Claim the bound context's dtype policy for this session, or raise.

        Runs *before* any layer is mutated, so a conflicting overlap leaves
        both the target and the policy exactly as they were.  Sessions bound
        to different contexts never conflict.
        """
        if self.config.dtype is None:
            return
        requested = canonical_dtype_name(self.config.dtype)
        conflicting = self._bound.claim_dtype(id(self), requested)
        if conflicting:
            raise ConcurrentDtypeError(
                f"cannot apply compute dtype {requested!r}: overlapping "
                f"session(s) on this execution context already hold "
                f"{conflicting} — sessions sharing one context must agree "
                f"on one dtype (run conflicting sessions in their own "
                f"contexts, e.g. under use_context(ExecutionContext()))"
            )
        self._holds_dtype = True

    def _unregister_dtype(self) -> None:
        if self._holds_dtype:
            self._bound.release_dtype(id(self))
            self._holds_dtype = False

    def __enter__(self):
        self._bound = current_context()
        saved = capture_sim_state(self.target)
        saved_dtype = self._bound.dtype_name
        self._register_dtype()
        try:
            # apply_config validates before mutating, so a failing enter
            # leaves the target exactly as it was and nothing needs
            # restoring.
            apply_config(self.target, self.config, self.profile)
        except BaseException:
            self._unregister_dtype()
            raise
        self._saved = saved
        self._saved_dtype = saved_dtype
        if self.config.seed is not None:
            seed_everything(self.config.seed)
        return self.target

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        if self._saved is not None:
            restore_sim_state(self.target, self._saved)
            self._saved = None
        if self._saved_dtype is not None:
            self._bound.set_dtype(self._saved_dtype)
            self._saved_dtype = None
        self._unregister_dtype()
        return False

