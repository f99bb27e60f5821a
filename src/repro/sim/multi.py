""":class:`MultiSession` — K compatible :class:`SimConfig`\\ s over one batch.

Every scenario sweep in this repro (fig1b sigma sweeps, table cells, distinct
serve requests) pushes the *same* clean input batch through the *same*
weights; only the noise realisation, pulse schedule and PLA re-encoding
differ per scenario.  A :class:`MultiSession` exploits that in two phases
per batch:

1. **Shared stem.**  The model's :meth:`forward_stem` — the deterministic
   layers before the first encoded layer — runs once.
2. **Per-scenario body.**  For each scenario in turn, the session selects
   that scenario's state on every encoded layer and runs
   :meth:`forward_body` on the stem output at batch ``N``.  The first
   encoded layer carries a :class:`~repro.core.encoder_layer.ReadMemo`: it
   quantises the stem output once and computes the PLA re-encoding and
   ideal crossbar read once per distinct encoding; each scenario then only
   draws its own read noise there.

Every op thus works on a cache-sized batch of ``N`` rows, never on a
``K*N``-row stack.

Bit-identity per scenario — the contract and why it holds
---------------------------------------------------------
Each scenario's logits are **bit-identical** to a sequential
:class:`~repro.sim.Session` evaluation of that config:

* **Same ops, same shapes.**  The stem and every layer of the body are the
  ordinary layer forwards at the sequential batch size ``N``, so every
  matmul has the sequential operand shapes (BLAS kernels dispatch by shape;
  a fused ``K*N``-row matmul would not be bit-identical).  This holds for
  the digital classifier too.
* **Memoised reads are the sequential reads.**  The first encoded layer's
  memo is keyed by its input object and by the encoding (pulse count and
  PLA mode, or the base encoding for clean and 8-pulse scenarios).  A
  scenario reuses a read only when the sequential run would compute the
  very same read of the very same input.
* **Per-scenario streams.**  While scenario ``k`` runs, every encoded layer
  draws from ``rngs[k]``, in forward-layer order — exactly the samples the
  sequential run consumes from the context stream after
  ``seed_everything(seed_k)``, because ``RandomState(seed)`` and a reseeded
  context stream are the same ``numpy.random.default_rng(seed)`` stream.
  Zero-sigma layers and clean scenarios draw nothing in either path.
  Interleaving scenarios per batch does not reorder any one stream.

Compatibility is decided by :meth:`SimConfig.compat_key` (same resolved
engine, mode, PLA rounding mode and dtype; sigma / pulses / relative flag /
seed are free per scenario); :func:`repro.sim.config.stack_configs` groups a
list of configs accordingly.  Multi-scenario evaluation is inference-only:
train-mode BatchNorm would update its statistics once per scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from repro.sim.config import SimConfig, stack_configs
from repro.sim.session import Session, _schedule_for, encoded_layers_of
from repro.tensor.random import RandomState, default_rng


@dataclass
class _ScenarioPack:
    """One scenario's parameters at one layer, fully resolved."""

    mode: str
    num_pulses: int
    sigma: float
    relative: bool
    pla_mode: str
    rng: RandomState


def _default_rngs(configs: Sequence[SimConfig]) -> List[RandomState]:
    """One independent stream per scenario.

    A seeded config gets the stream a sequential seeded run would use
    (``RandomState(seed)`` equals the context stream after
    ``seed_everything(seed)``); an unseeded config gets a fresh spawned
    stream — independent and reproducible only relative to the current
    context state, so callers wanting sequential bit-identity must pass
    explicit per-scenario rngs (the runner does, derived from spec hashes).
    """
    return [
        RandomState(config.seed) if config.seed is not None else default_rng().spawn()
        for config in configs
    ]


class MultiSession:
    """Configure a model to evaluate K compatible configs on each batch.

    Usage mirrors :class:`~repro.sim.Session`::

        with MultiSession(model, configs, rngs=rngs) as session:
            for inputs, targets in loader:
                logits = session.forward(Tensor(inputs))  # K tensors of N rows

    The target must be a model with ``forward_stem``/``forward_body`` (see
    :class:`repro.models.base.EncodedModelMixin`).  Entering validates
    compatibility (:meth:`SimConfig.compat_key` — raises ``ValueError`` on a
    mixed group), snapshots and pins the model through an inner
    :class:`Session` (engine pin, dtype claim, state restore on exit) and
    attaches the read memo to the first encoded layer.  Exiting restores
    every layer's simulation state and noise stream, even when the body
    raises.
    """

    def __init__(
        self,
        target: Any,
        configs: Sequence[SimConfig],
        rngs: Optional[Sequence[RandomState]] = None,
        profile: Any = None,
    ):
        configs = list(configs)
        if not configs:
            raise ValueError("MultiSession needs at least one SimConfig")
        for config in configs:
            if config.mode not in ("clean", "noisy"):
                raise ValueError(
                    f"MultiSession only stacks clean/noisy scenarios, got mode "
                    f"{config.mode!r}"
                )
        groups = stack_configs(configs, profile)
        if len(groups) != 1:
            keys = sorted({str(c.compat_key(profile)) for c in configs})
            raise ValueError(
                f"configs are not stackable: {len(groups)} compatibility "
                f"groups (keys: {keys}); group them with "
                f"repro.sim.stack_configs() first"
            )
        if rngs is not None:
            rngs = list(rngs)
            if len(rngs) != len(configs):
                raise ValueError(
                    f"MultiSession got {len(configs)} configs but {len(rngs)} rngs"
                )
        if not hasattr(target, "forward_body"):
            raise TypeError(
                f"MultiSession needs a model with forward_stem/forward_body, "
                f"got {type(target).__name__}"
            )
        self.configs = configs
        self.rngs = rngs
        self.profile = profile
        self.target = target
        self._session: Optional[Session] = None
        self._layers: List[Any] = []
        self._saved_rngs: List[RandomState] = []
        self._scenarios: List[List[_ScenarioPack]] = []

    def forward(self, inputs) -> List[Any]:
        """Every scenario's logits for one input batch, in config order."""
        stem = self.target.forward_stem(inputs)
        logits = []
        for packs in self._scenarios:
            for layer, pack in zip(self._layers, packs):
                layer._apply_noise(pack.sigma, pack.relative)
                layer._apply_pulses(pack.num_pulses)
                layer._apply_pla_mode(pack.pla_mode)
                layer._apply_mode(pack.mode)
                layer.noise_rng = pack.rng
            logits.append(self.target.forward_body(stem))
        return logits

    # ------------------------------------------------------------------
    def __enter__(self) -> "MultiSession":
        reference = self.configs[0]
        base = SimConfig(
            engine=reference.resolved_engine(self.profile),
            mode="clean",
            dtype=reference.dtype,
        )
        session = Session(self.target, base, self.profile)
        session.__enter__()
        try:
            layers = encoded_layers_of(self.target)
            captured = session._saved  # pre-apply snapshot: "keep current" base
            rngs = self.rngs if self.rngs is not None else _default_rngs(self.configs)
            self._scenarios = []
            for config, rng in zip(self.configs, rngs):
                schedule = _schedule_for(config, len(layers))
                self._scenarios.append(
                    [
                        _ScenarioPack(
                            mode=config.mode,
                            num_pulses=(
                                schedule[index] if schedule is not None else state.num_pulses
                            ),
                            sigma=config.noise_sigma,
                            relative=(
                                config.sigma_relative_to_fan_in
                                if config.sigma_relative_to_fan_in is not None
                                else state.sigma_relative_to_fan_in
                            ),
                            pla_mode=(
                                config.pla_mode
                                if config.pla_mode is not None
                                else state.pla_mode
                            ),
                            rng=rng,
                        )
                        for index, state in enumerate(captured)
                    ]
                )
        except BaseException:
            session.__exit__(None, None, None)
            raise
        from repro.core.encoder_layer import ReadMemo

        self._layers = layers
        self._saved_rngs = [layer.noise_rng for layer in layers]
        layers[0]._read_memo = ReadMemo()
        self._session = session
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        try:
            for layer, rng in zip(self._layers, self._saved_rngs):
                layer.noise_rng = rng
                layer._read_memo = None
            self._layers = []
            self._saved_rngs = []
        finally:
            if self._session is not None:
                self._session.__exit__(exc_type, exc_value, traceback)
                self._session = None
        return False
