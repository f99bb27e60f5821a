"""Declarative scenario model: :class:`ScenarioSpec` and :class:`ScenarioGrid`.

A spec is a frozen, hashable, JSON-serialisable description of one scenario.
Its content hash keys the on-disk result store and derives the scenario's
RNG seed, which is what makes the runner's three execution modes (serial
oracle, worker pool, cached resume) bit-identical: a scenario's randomness
depends only on *what* it is, never on *when* or *where* it runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from repro.sim import SimConfig
from repro.sim import engine_name as _engine_name
from repro.sim import resolve_engine_name
from repro.utils.hashing import stable_hash, stable_seed

#: Bump when the execution semantics change incompatibly; part of the hash,
#: so stale store entries are simply never looked up again.
SPEC_VERSION = 1


def _freeze(mapping: Optional[Mapping[str, Any]]) -> Tuple[Tuple[str, Any], ...]:
    """Canonicalise a mapping into a sorted, hashable tuple of pairs."""
    if not mapping:
        return ()
    items = []
    for key in sorted(mapping):
        value = mapping[key]
        if isinstance(value, (list, tuple)):
            value = tuple(value)
        items.append((str(key), value))
    return tuple(items)


def engine_token(engine: Any) -> Optional[str]:
    """Canonical registry name for an engine pin.

    Specs must stay JSON-canonical and stable across processes, so engine
    pins are stored as registry names.  Accepts ``None``, a name, or an
    engine instance (coerced via its ``name`` attribute, the same identity
    the :mod:`repro.backend` registry uses); anything else is rejected
    loudly rather than stringified into an address-dependent hash.
    Alias of :func:`repro.sim.engine_name` — one canonicalisation rule.
    """
    return _engine_name(engine)


def profile_axes(profile, engine: Any = None) -> Dict[str, Any]:
    """Spec fields binding a scenario to a concrete profile and engine.

    Grid builders spread this into :meth:`ScenarioSpec.create` so every
    spec is fully self-describing:

    * the profile travels as ``name`` + the overrides that differ from the
      registered base (a worker rebuilds it exactly, and an overridden
      profile hashes differently from the base one);
    * the engine pin is resolved *now*, through the one precedence rule of
      :func:`repro.sim.resolve_engine_name` (explicit argument, the
      profile's backend, ``"vectorized"``) — so
      results produced under different backends can never answer each
      other's store lookups (the engines agree only statistically on noisy
      reads, not sample-for-sample).
    """
    from repro.experiments.profiles import profile_overrides

    return {
        "profile": profile.name,
        "overrides": profile_overrides(profile),
        "engine": resolve_engine_name(engine, profile),
    }


def grid_profile(grid: "ScenarioGrid", fallback: Any = None):
    """The profile a grid's scenarios execute under, rebuilt from the specs.

    Assemblers use this instead of a bundle's profile: the in-process bundle
    cache deliberately aliases profiles that differ only in eval-only fields
    (they share pre-trained weights), so the bundle's profile may lack the
    overrides the grid was built with.
    """
    first = next(iter(grid), None)
    if first is not None and first.profile:
        return first.resolved_profile()
    return fallback.profile if fallback is not None else None


@dataclass(frozen=True)
class ScenarioSpec:
    """Description of one scenario: a single (method, configuration) cell.

    Attributes
    ----------
    experiment:
        Registry identifier of the owning experiment (``"table1"``, ...).
    method:
        Method label within the experiment (``"Baseline"``, ``"PLA12"``,
        ``"GBO-long"``, ``"NIA+GBO"``, ``"layer:conv3"``, ...).
    profile:
        Experiment profile name; empty for profile-less experiments
        (``fig1b``, ``ablation_pla_error``).
    overrides:
        Frozen profile field overrides (from
        :meth:`~repro.experiments.profiles.ExperimentProfile.with_overrides`).
    sigma / gamma:
        The scenario's noise level and GBO latency weight, when applicable.
    engine:
        Simulation-engine pin (registry name) for everything the scenario
        runs; ``None`` tracks the profile's backend.
    seed:
        Base seed mixed into the derived per-scenario seed; ``None`` uses
        the profile's seed (or 0 for profile-less experiments).
    params:
        Frozen experiment-specific extras (pulse counts, layer index, ...).
    sim:
        Frozen payload of an explicitly attached, non-default
        :class:`repro.sim.SimConfig`.  A scenario's identity *always*
        incorporates its sim config: for default configs the config is a
        pure function of the hashed ``engine`` / ``sigma`` / profile fields
        (see :meth:`sim_config`), so the payload stays empty and existing
        scenario hashes are unchanged; an explicitly attached non-default
        config extends the hashed payload (``"sim"`` key) and therefore
        changes the identity, store key and derived seed.
    """

    experiment: str
    method: str = ""
    profile: str = ""
    overrides: Tuple[Tuple[str, Any], ...] = ()
    sigma: Optional[float] = None
    gamma: Optional[float] = None
    engine: Optional[str] = None
    seed: Optional[int] = None
    params: Tuple[Tuple[str, Any], ...] = ()
    sim: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def create(
        cls,
        experiment: str,
        method: str = "",
        profile: str = "",
        overrides: Optional[Mapping[str, Any]] = None,
        sigma: Optional[float] = None,
        gamma: Optional[float] = None,
        engine: Optional[str] = None,
        seed: Optional[int] = None,
        sim: Optional[SimConfig] = None,
        **params: Any,
    ) -> "ScenarioSpec":
        """Build a spec with mappings canonicalised into frozen tuples.

        ``sim`` attaches an explicit non-default :class:`SimConfig`; when
        given, its engine pin becomes the spec's engine and the full config
        payload joins the hashed identity.
        """
        if sim is not None:
            if engine is not None and engine_token(engine) != sim.engine:
                raise ValueError(
                    f"conflicting engine pins: engine={engine!r} vs "
                    f"sim.engine={sim.engine!r}"
                )
            engine = sim.engine
        return cls(
            experiment=experiment,
            method=method,
            profile=profile,
            overrides=_freeze(overrides),
            sigma=None if sigma is None else float(sigma),
            gamma=None if gamma is None else float(gamma),
            engine=engine_token(engine),
            seed=seed,
            params=_freeze(params),
            sim=() if sim is None else _freeze(sim.as_dict()),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def param(self, name: str, default: Any = None) -> Any:
        """Look up an experiment-specific extra parameter."""
        for key, value in self.params:
            if key == name:
                return value
        return default

    def override_dict(self) -> Dict[str, Any]:
        """Profile overrides as a plain dict."""
        return {key: value for key, value in self.overrides}

    def resolved_profile(self):
        """The experiment profile this scenario runs under, overrides applied."""
        from repro.experiments.profiles import get_profile

        return get_profile(self.profile).with_overrides(**self.override_dict())

    def as_dict(self) -> Dict[str, Any]:
        """Canonical JSON-serialisable form (used for hashing and storage).

        The ``"sim"`` key is present only for explicitly attached
        non-default configs — default-config specs keep the exact payload
        (and hence hash) they had before sim configs existed.
        """
        payload = {
            "version": SPEC_VERSION,
            "experiment": self.experiment,
            "method": self.method,
            "profile": self.profile,
            "overrides": [list(pair) for pair in self.overrides],
            "sigma": self.sigma,
            "gamma": self.gamma,
            "engine": self.engine,
            "seed": self.seed,
            "params": [list(pair) for pair in self.params],
        }
        if self.sim:
            payload["sim"] = [list(pair) for pair in self.sim]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`as_dict` output (e.g. in a worker)."""
        return cls(
            experiment=payload["experiment"],
            method=payload.get("method", ""),
            profile=payload.get("profile", ""),
            overrides=tuple(
                (pair[0], tuple(pair[1]) if isinstance(pair[1], list) else pair[1])
                for pair in payload.get("overrides", ())
            ),
            sigma=payload.get("sigma"),
            gamma=payload.get("gamma"),
            engine=payload.get("engine"),
            seed=payload.get("seed"),
            params=tuple(
                (pair[0], tuple(pair[1]) if isinstance(pair[1], list) else pair[1])
                for pair in payload.get("params", ())
            ),
            sim=tuple(
                (pair[0], tuple(pair[1]) if isinstance(pair[1], list) else pair[1])
                for pair in payload.get("sim", ())
            ),
        )

    def sim_config(self, profile: Any = None) -> SimConfig:
        """The scenario's base :class:`SimConfig` (clean mode, resolved engine).

        For default specs the config is derived from the hashed spec fields
        — the spec's engine pin (resolved through the one precedence rule
        when absent) plus the profile's conventions — which is why the
        spec hash already incorporates the config identity without an extra
        payload.  Explicitly attached configs (:meth:`create`'s ``sim=``)
        are returned verbatim.

        The derived baseline is deliberately *concrete* (baseline pulse
        count, paper PLA rounding, explicit float64 compute dtype) rather
        than "keep current": applying it in :meth:`ScenarioContext.pipeline`
        must erase whatever a previous scenario — possibly one with an
        explicitly attached non-default config — left on the shared model
        or the process dtype policy, or results would depend on execution
        order.  The explicit dtype never enters the hashed payload: derived
        configs are a pure function of the hashed spec fields and are never
        serialised into it.
        """
        if self.sim:
            return SimConfig.from_dict(dict(self.sim))
        engine = self.engine
        if engine is None:
            engine = resolve_engine_name(None, profile)
        base_pulses = getattr(profile, "base_pulses", None)
        return SimConfig(
            engine=engine,
            pulses=base_pulses,
            sigma_relative_to_fan_in=getattr(profile, "noise_relative_to_fan_in", None),
            pla_mode="toward_extremes",
            dtype="float64",
        )

    @cached_property
    def hash(self) -> str:
        """Stable content hash; the store key and seed source."""
        return stable_hash(self.as_dict())

    def derived_seed(self, base: Optional[int] = None) -> int:
        """Per-scenario RNG seed: a pure function of the spec content.

        ``base`` defaults to the spec's own ``seed`` field (typically the
        profile seed), so re-running an identical grid reproduces identical
        noise streams while two different scenarios never share one.
        """
        if base is None:
            base = self.seed if self.seed is not None else 0
        return stable_seed({"spec": self.hash, "base": base})

    def label(self) -> str:
        """Short human-readable identity for logs and progress lines."""
        bits = [self.experiment]
        if self.method:
            bits.append(self.method)
        if self.sigma is not None:
            bits.append(f"sigma={self.sigma:g}")
        if self.gamma is not None:
            bits.append(f"gamma={self.gamma:g}")
        return " ".join(bits)


@dataclass(frozen=True)
class ScenarioGrid:
    """A named, ordered collection of scenario specs."""

    name: str
    specs: Tuple[ScenarioSpec, ...] = ()

    def __post_init__(self) -> None:
        seen: Dict[str, ScenarioSpec] = {}
        for spec in self.specs:
            if spec.hash in seen:
                raise ValueError(
                    f"duplicate scenario in grid {self.name!r}: {spec.label()}"
                )
            seen[spec.hash] = spec

    def __iter__(self) -> Iterator[ScenarioSpec]:
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    @cached_property
    def hash(self) -> str:
        """Content hash over all member specs (order-sensitive)."""
        return stable_hash([spec.as_dict() for spec in self.specs])

    def experiments(self) -> Tuple[str, ...]:
        """Distinct experiment identifiers in first-appearance order."""
        ordered = []
        for spec in self.specs:
            if spec.experiment not in ordered:
                ordered.append(spec.experiment)
        return tuple(ordered)

    def subset(self, predicate) -> "ScenarioGrid":
        """A new grid with only the specs matching ``predicate``."""
        return ScenarioGrid(
            name=self.name, specs=tuple(s for s in self.specs if predicate(s))
        )

    @classmethod
    def concat(cls, name: str, grids: Iterable["ScenarioGrid"]) -> "ScenarioGrid":
        """Concatenate several grids into one suite."""
        specs: Tuple[ScenarioSpec, ...] = ()
        for grid in grids:
            specs = specs + grid.specs
        return cls(name=name, specs=specs)

    @classmethod
    def from_product(
        cls,
        name: str,
        experiment: str,
        methods: Sequence[str],
        sigmas: Sequence[Optional[float]] = (None,),
        **common: Any,
    ) -> "ScenarioGrid":
        """Cross-product helper: one spec per (method, sigma) pair."""
        specs = tuple(
            ScenarioSpec.create(
                experiment=experiment, method=method, sigma=sigma, **common
            )
            for sigma in sigmas
            for method in methods
        )
        return cls(name=name, specs=specs)
