""":class:`SimConfig` — simulation state as an immutable, hashable value.

Everything that decides how a model simulates the crossbar (engine, forward
mode, pulse counts, noise level, PLA rounding) is captured here as one
frozen dataclass.  A config can be hashed (:attr:`SimConfig.hash`, stable
across processes), serialised to JSON and back bit-identically, and applied
to a model atomically through :class:`repro.sim.Session`.

Engine resolution — the one precedence rule
-------------------------------------------
:func:`resolve_engine_name` is the only place an engine is chosen, highest
priority first:

1. an explicit pin (``SimConfig.engine`` / a scenario spec's ``engine``);
2. the profile's ``backend`` field, when a profile is in play;
3. ``"vectorized"``.

``SimConfig.engine is None`` additionally means *engine-agnostic* at apply
time: :func:`repro.sim.session.apply_config` leaves the layers' engines
untouched.  Wherever a concrete engine must be chosen (building scenario
specs, constructing a model), callers resolve through the rule above.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.tensor.dtype import canonical_dtype_name
from repro.utils.hashing import stable_hash

#: Bump when the config semantics change incompatibly; part of the hash.
CONFIG_VERSION = 1

#: Forward modes of the encoded layers (see :mod:`repro.core.encoder_layer`).
FORWARD_MODES = ("clean", "noisy", "gbo")

#: PLA rounding modes (see :mod:`repro.core.pla`).
PLA_MODES = ("toward_extremes", "nearest")

PulsesLike = Union[int, Tuple[int, ...], None]
SigmaLike = Union[float, Tuple[float, ...]]


def engine_name(engine: Any) -> Optional[str]:
    """Canonical registry name of an engine pin (``None`` passes through).

    Accepts ``None``, a registry name, or an engine instance (coerced via
    its ``name`` attribute — the identity the :mod:`repro.backend` registry
    uses).  Anything else is rejected loudly rather than stringified into an
    address-dependent hash.
    """
    if engine is None or isinstance(engine, str):
        return engine
    name = getattr(engine, "name", None)
    if isinstance(name, str) and name:
        return name
    raise TypeError(
        f"engine pin must be None, a registry name or an engine instance "
        f"with a .name, got {engine!r}"
    )


def resolve_engine_name(engine: Any = None, profile: Any = None) -> str:
    """Resolve an engine pin to a concrete registry name — the one rule.

    Precedence (highest first): explicit ``engine`` pin, ``profile.backend``,
    ``"vectorized"``.
    """
    pinned = engine_name(engine)
    if pinned is not None:
        return pinned
    backend = getattr(profile, "backend", None)
    if backend:
        return str(backend)
    return "vectorized"


def _canonical_pulses(pulses: Any) -> PulsesLike:
    """Coerce a pulses field into ``None``, a positive int, or an int tuple."""
    if pulses is None:
        return None
    if hasattr(pulses, "as_list"):  # PulseSchedule quacks like this
        pulses = pulses.as_list()
    if isinstance(pulses, (list, tuple)):
        schedule = tuple(int(p) for p in pulses)
        if not schedule or any(p < 1 for p in schedule):
            raise ValueError(f"pulse schedule entries must be positive, got {schedule}")
        return schedule
    count = int(pulses)
    if count < 1:
        raise ValueError(f"num_pulses must be positive, got {count}")
    return count


def _canonical_sigma(sigma: Any) -> SigmaLike:
    """Coerce a noise_sigma field into a non-negative float or a float tuple."""
    if isinstance(sigma, (list, tuple)):
        sigmas = tuple(float(s) for s in sigma)
        if not sigmas or any(s < 0 for s in sigmas):
            raise ValueError(f"noise_sigma entries must be non-negative, got {sigmas}")
        return sigmas
    value = float(sigma)
    if value < 0:
        raise ValueError(f"noise_sigma must be non-negative, got {value}")
    return value


def _jsonable(value: Any) -> Any:
    """A per-layer tuple as a JSON list; anything else unchanged."""
    return list(value) if isinstance(value, tuple) else value


@dataclass(frozen=True)
class SimConfig:
    """One immutable description of how a model simulates the crossbar.

    Attributes
    ----------
    engine:
        Simulation-engine pin (registry name, or an engine instance which is
        canonicalised to its name).  ``None`` means engine-agnostic: applying
        the config leaves layer engines untouched, and resolving it follows
        :func:`resolve_engine_name`.
    mode:
        Forward mode applied to every encoded layer: ``"clean"``, ``"noisy"``
        or ``"gbo"``.
    pulses:
        ``None`` keeps each layer's current pulse count; an int applies a
        uniform count; a tuple (or :class:`~repro.core.schedule.PulseSchedule`)
        applies a per-layer schedule and must match the layer count.
    noise_sigma:
        Per-pulse crossbar read-noise standard deviation: a float applies to
        every layer; a tuple gives one per layer and must match the layer
        count (``(0.0, 6.0, 0.0)`` makes only the second layer noisy, the
        configuration of Fig. 2).  A zero-sigma layer draws no noise.
    sigma_relative_to_fan_in:
        Interpret sigma per crossbar row rather than as absolute output
        deviation; ``None`` keeps each layer's current setting.
    pla_mode:
        PLA rounding mode (``"toward_extremes"`` / ``"nearest"``); ``None``
        keeps each layer's current setting.
    seed:
        Seed policy: when set, entering a :class:`~repro.sim.Session` calls
        :func:`repro.utils.seed.seed_everything` with it, so the run's
        stochastic stream is part of the config's identity.  ``None`` leaves
        seeding to the caller (the scenario runner seeds from spec hashes).
    dtype:
        Compute-dtype policy (``"float64"`` / ``"float32"``): when set,
        applying the config installs it as the process compute dtype (see
        :mod:`repro.tensor.dtype`) and a :class:`~repro.sim.Session` restores
        the previous policy on exit.  ``None`` keeps the current policy and —
        exactly like an unset ``sim`` on a scenario spec — stays out of the
        hashed payload, so every pre-existing config hash is unchanged.
        ``"float32"`` trades bit-exactness for raw speed: results are
        tolerance-comparable to float64, never bit-identical.
    """

    engine: Optional[str] = None
    mode: str = "clean"
    pulses: PulsesLike = None
    noise_sigma: SigmaLike = 0.0
    sigma_relative_to_fan_in: Optional[bool] = None
    pla_mode: Optional[str] = None
    seed: Optional[int] = None
    dtype: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "engine", engine_name(self.engine))
        if self.mode not in FORWARD_MODES:
            raise ValueError(f"unknown forward mode {self.mode!r}; expected one of {FORWARD_MODES}")
        object.__setattr__(self, "pulses", _canonical_pulses(self.pulses))
        object.__setattr__(self, "noise_sigma", _canonical_sigma(self.noise_sigma))
        if self.sigma_relative_to_fan_in is not None:
            object.__setattr__(self, "sigma_relative_to_fan_in", bool(self.sigma_relative_to_fan_in))
        if self.pla_mode is not None and self.pla_mode not in PLA_MODES:
            raise ValueError(f"unknown PLA rounding mode {self.pla_mode!r}; expected one of {PLA_MODES}")
        if self.seed is not None:
            object.__setattr__(self, "seed", int(self.seed))
        if self.dtype is not None:
            object.__setattr__(self, "dtype", canonical_dtype_name(self.dtype))

    # ------------------------------------------------------------------
    # Identity / serialisation
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """Canonical JSON-serialisable form (the hashed payload).

        The ``dtype`` key joins the payload only when the policy is set:
        the float64 default is the historical behaviour, and omitting it
        keeps every pre-existing config hash (and thus store key and
        scenario identity) bit-identical.  Per-layer pulses and sigmas are
        lists; a uniform one stays a scalar.
        """
        payload = {
            "version": CONFIG_VERSION,
            "engine": self.engine,
            "mode": self.mode,
            "pulses": _jsonable(self.pulses),
            "noise_sigma": _jsonable(self.noise_sigma),
            "sigma_relative_to_fan_in": self.sigma_relative_to_fan_in,
            "pla_mode": self.pla_mode,
            "seed": self.seed,
        }
        if self.dtype is not None:
            payload["dtype"] = self.dtype
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SimConfig":
        """Rebuild a config from :meth:`as_dict` output."""
        return cls(
            engine=payload.get("engine"),
            mode=payload.get("mode", "clean"),
            pulses=payload.get("pulses"),
            noise_sigma=payload.get("noise_sigma", 0.0),
            sigma_relative_to_fan_in=payload.get("sigma_relative_to_fan_in"),
            pla_mode=payload.get("pla_mode"),
            seed=payload.get("seed"),
            dtype=payload.get("dtype"),
        )

    def to_json(self) -> str:
        """Canonical JSON text; ``from_json`` round-trips bit-identically."""
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SimConfig":
        return cls.from_dict(json.loads(text))

    @cached_property
    def hash(self) -> str:
        """Stable content hash — identical across processes and platforms."""
        return stable_hash(self.as_dict())

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def with_changes(self, **changes: Any) -> "SimConfig":
        """A copy of the config with selected fields replaced."""
        return replace(self, **changes)

    @classmethod
    def for_profile(cls, profile, **changes: Any) -> "SimConfig":
        """A config carrying a profile's engine and noise conventions.

        Resolves the engine through the one precedence rule (so the result
        is fully concrete and hash-stable) and adopts the profile's
        ``noise_relative_to_fan_in`` convention; ``changes`` override any
        field on top.
        """
        base = cls(
            engine=resolve_engine_name(None, profile),
            sigma_relative_to_fan_in=getattr(profile, "noise_relative_to_fan_in", None),
        )
        return base.with_changes(**changes) if changes else base

    def resolved_engine(self, profile: Any = None) -> str:
        """This config's concrete engine name under the one precedence rule."""
        return resolve_engine_name(self.engine, profile)

    # ------------------------------------------------------------------
    # Multi-scenario stacking
    # ------------------------------------------------------------------
    def compat_key(self, profile: Any = None) -> Tuple[Any, ...]:
        """Grouping key for the batched multi-scenario forward.

        Two configs may share one batched evaluation only when they agree
        on everything that changes *how* the shared input batch is computed
        rather than *which* noise realisation lands on it: the resolved
        engine, the PLA rounding mode and the compute dtype.  The axes that
        remain free per scenario — the ``clean``/``noisy`` mode,
        ``noise_sigma``, ``pulses``/schedule, ``sigma_relative_to_fan_in``
        and ``seed`` — are what :class:`repro.sim.MultiSession` resolves
        into one parameter pack per scenario and encoded layer.  Weights
        and the input pipeline are not part of a config; callers enforce
        those by only grouping scenarios of one profile/bundle.
        """
        return (
            self.resolved_engine(profile),
            self.pla_mode,
            self.dtype,
        )

