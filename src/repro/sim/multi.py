""":class:`MultiSession` — K compatible :class:`SimConfig`\\ s over one batch.

Every scenario sweep in this repro (fig1b sigma sweeps, table cells, the
runner's stacked ``api_eval`` grids) pushes the *same* clean input batch
through the *same* weights; only the noise realisation, pulse schedule and
PLA re-encoding differ per scenario.  A :class:`MultiSession` exploits that in two phases
per batch:

1. **Shared stem.**  The model's :meth:`forward_stem` — the deterministic
   layers before the first encoded layer — runs once.
2. **Per-scenario body.**  For each scenario in turn, the session selects
   that scenario's state on every encoded layer and runs
   :meth:`forward_body` on the stem output at batch ``N``.  The first
   encoded layer carries a :class:`~repro.core.encoder_layer.ReadMemo`: it
   rounds the stem output to its level index once and looks up the
   encoding and computes the ideal crossbar read once per distinct
   encoding; each scenario then only draws its own read noise there, and
   adds the shared read into that fresh noise array, never the other way
   round.

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
  very same read of the very same input, and no scenario writes into it.
* **Per-scenario streams.**  While scenario ``k`` runs, every encoded layer
  draws from ``rngs[k]``, in forward-layer order — exactly the samples the
  sequential run consumes from the context stream after
  ``seed_everything(seed_k)``, because ``RandomState(seed)`` and a reseeded
  context stream are the same ``numpy.random.default_rng(seed)`` stream.
  Zero-sigma layers and clean scenarios draw nothing in either path.
  Interleaving scenarios per batch does not reorder any one stream.

The streams are therefore part of the contract, and ``rngs`` is required:
one :class:`~repro.tensor.random.RandomState` per config, in config order.
The caller chooses the stream each sequential run would use — the scenario
runner derives ``RandomState(seed)`` from the config's seed or the spec
hash (see :func:`repro.api.execute_api_eval_batch`).  There is no default,
because a stream not derived that way would not match any sequential run.

**Noise drawn ahead.**  :func:`repro.training.evaluate.evaluate_multi`
does not let the forward draw on ``rngs[k]`` itself.  It passes
:meth:`MultiSession.forward` one stand-in stream per scenario: on the
first batch a recorder that draws on ``rngs[k]`` and notes each call, from
the second batch on a replay of draws that one helper thread made on
``rngs[k]`` with those very calls, in order, a few draws ahead.  Each
stream therefore still sees exactly the calls of this step-by-step loop,
none after the last batch, and a forward that asks for any other draw
raises rather than shifting a stream.  The calling thread keeps the stem,
the memoised reads, every body and the bookkeeping.

Compatibility is decided by :meth:`SimConfig.compat_key` (same resolved
engine, PLA rounding mode and dtype; clean/noisy mode, sigma, pulses,
relative flag and seed are free per scenario); a :class:`MultiSession`
accepts only configs sharing one key.  Multi-scenario evaluation is
inference-only: train-mode BatchNorm would update its statistics once per
scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from repro.sim.config import SimConfig
from repro.sim.session import Session, _schedule_for, encoded_layers_of
from repro.tensor.random import RandomState


@dataclass
class _ScenarioPack:
    """One scenario's parameters at one layer, fully resolved."""

    mode: str
    num_pulses: int
    sigma: float
    relative: bool
    pla_mode: str


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
        rngs: Sequence[RandomState],
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
        keys = {config.compat_key(profile) for config in configs}
        if len(keys) != 1:
            raise ValueError(
                f"configs are not stackable: {len(keys)} compatibility "
                f"groups (keys: {sorted(map(str, keys))}); group them by "
                f"SimConfig.compat_key() first"
            )
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

    def forward(self, inputs, streams: Optional[Sequence[Any]] = None) -> List[Any]:
        """Every scenario's logits for one input batch, in config order.

        Scenario ``k`` draws its noise from ``rngs[k]``, or from
        ``streams[k]`` when given: a stand-in that makes or replays the
        draws ``rngs[k]`` would give (see
        :func:`repro.training.evaluate.evaluate_multi`).
        """
        streams = self.rngs if streams is None else streams
        if len(streams) != len(self.rngs):
            raise ValueError(
                f"MultiSession has {len(self.rngs)} scenarios but got {len(streams)} streams"
            )
        stem = self.target.forward_stem(inputs)
        logits = []
        for packs, stream in zip(self._scenarios, streams):
            for layer, pack in zip(self._layers, packs):
                layer._apply_noise(pack.sigma, pack.relative)
                layer._apply_pulses(pack.num_pulses)
                layer._apply_pla_mode(pack.pla_mode)
                layer._apply_mode(pack.mode)
                layer.noise_rng = stream
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
            self._scenarios = []
            for config in self.configs:
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
