""":class:`MultiSession` — K compatible :class:`SimConfig`\\ s over one batch.

Every scenario sweep in this repro (fig1b sigma sweeps, table cells, the
runner's stacked ``api_eval`` grids) pushes the *same* clean input batch
through the *same* weights; only the noise realisation, pulse schedule and
PLA re-encoding differ per scenario.  A :class:`MultiSession` exploits that in two phases
per batch:

1. **Shared stem.**  The model's :meth:`forward_stem` — the deterministic
   layers before the first encoded layer — runs once, and the first
   encoded layer's :class:`~repro.core.encoder_layer.ReadMemo` is filled
   from it: the stem output rounded to its level index once, and the
   ideal crossbar read computed once per distinct encoding.  The memo is
   then sealed: a read it does not hold raises.
2. **Per-scenario body.**  For each scenario in turn, the session selects
   that scenario's state on every encoded layer and runs
   :meth:`forward_body` on the stem output at batch ``N``.  The first
   encoded layer takes its read from the memo and only draws its own read
   noise, adding the shared read into that fresh noise array, never the
   other way round.

Every op thus works on a cache-sized batch of ``N`` rows, never on a
``K*N``-row stack.

**One lane.**  The calling thread runs every scenario, grouped by the
first encoded layer's encoding (in order of first appearance; the logits
still come back in config order).  The memo holds one encoding's read at
a time: it is dropped before the next encoding's is computed, so one lane
holds the stem, its one-byte level index and one read, whatever K is.
Reordering scenarios within a batch reorders no stream.  Grid drains run
one lane (``lanes=1``; see :mod:`repro.distributed.worker`).

**Two lanes.**  With two or more configs, ``lanes=2`` (the default), and
a one-thread BLAS pool (:func:`repro.worker_env.blas_pinned` reads the
pool itself: every worker
process, e2ebench, or a :func:`~repro.worker_env.blas_pool_pinned` block),
the bodies run in two lanes at once.  The calling thread runs the first
``ceil(K/2)`` scenarios on the model itself; one helper thread (a
:class:`~repro.utils.step_ahead.StepAheadThread` named ``eval-lane``) runs
the rest on a replica: a :func:`copy.deepcopy` of the model made on
entering, pinned to the model's own engine instances, sharing the first
layer's memo, and dropped on exit.  Each batch, the calling thread runs the
stem and fills the memo with every encoding's read before it hands the
batch to the helper, and :meth:`MultiSession.forward` returns only once
both lanes are done, so the
memo is never filled while a lane reads it.  The helper runs each batch in
a copy of the calling thread's :mod:`contextvars` context, so it resolves
the same grad state and execution context (dtype policy).  Both lanes
together hold one layer-0 read per encoding: the memo is shared, not
duplicated.  With one config no thread starts and no replica is made, and
neither does with a multi-threaded BLAS pool: the two lanes' BLAS calls
then contend for that pool, and on a 2-CPU host K = 8 scenarios over the
fast-profile bundle took 2.75 s in two lanes against 2.18 s in one.

Bit-identity per scenario — the contract and why it holds
---------------------------------------------------------
Each scenario's logits are **bit-identical** to a sequential
:class:`~repro.sim.Session` evaluation of that config:

* **Same ops, same shapes.**  The stem and every layer of the body are the
  ordinary layer forwards at the sequential batch size ``N``, so every
  matmul has the sequential operand shapes (BLAS kernels dispatch by shape;
  a fused ``K*N``-row matmul would not be bit-identical).  This holds for
  the digital classifier too, and in either lane: the replica holds the
  model's very weights, copied.
* **Memoised reads are the sequential reads.**  The first encoded layer's
  memo is keyed by its input object and by the encoding (pulse count and
  PLA mode, or the base encoding for clean and 8-pulse scenarios).  A
  scenario reuses a read only when the sequential run would compute the
  very same read of the very same input, and no scenario writes into it.
* **Per-scenario streams.**  While scenario ``k`` runs, every encoded layer
  of its lane draws from ``rngs[k]``, in forward-layer order — exactly the
  samples the sequential run consumes from the context stream after
  ``seed_everything(seed_k)``, because ``RandomState(seed)`` and a reseeded
  context stream are the same ``numpy.random.default_rng(seed)`` stream.
  Each stream belongs to one lane and is drawn on that lane's thread only.
  Zero-sigma layers and clean scenarios draw nothing in either path.
  Interleaving scenarios per batch does not reorder any one stream.

The streams are therefore part of the contract, and ``rngs`` is required:
one :class:`~repro.tensor.random.RandomState` per config, in config order.
The caller chooses the stream each sequential run would use — the scenario
runner derives ``RandomState(seed)`` from the config's seed or the spec
hash (see :func:`repro.api.execute_api_eval_batch`).  There is no default,
because a stream not derived that way would not match any sequential run.

Compatibility is decided by :meth:`SimConfig.compat_key` (same resolved
engine, PLA rounding mode and dtype; clean/noisy mode, sigma, pulses,
relative flag and seed are free per scenario); a :class:`MultiSession`
accepts only configs sharing one key.  Multi-scenario evaluation is
inference-only: train-mode BatchNorm would update its statistics once per
scenario, and the replica is a snapshot of the model as it was on
entering.
"""

from __future__ import annotations

import contextvars
import copy
import queue
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from repro.sim.config import SimConfig
from repro.sim.session import Session, encoded_layers_of, per_layer
from repro.tensor.random import RandomState
from repro.utils.step_ahead import StepAhead
from repro.worker_env import blas_pinned


@dataclass
class _ScenarioPack:
    """One scenario's parameters at one layer, fully resolved."""

    mode: str
    num_pulses: int
    sigma: float
    relative: bool
    pla_mode: str

    def select(self, layer: Any) -> None:
        """Put ``layer`` in this state."""
        layer._apply_noise(self.sigma, self.relative)
        layer._apply_pulses(self.num_pulses)
        layer._apply_pla_mode(self.pla_mode)
        layer._apply_mode(self.mode)


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
    :class:`Session` (engine pin, dtype claim, state restore on exit),
    attaches the read memo to the first encoded layer and, for two or more
    configs with ``lanes=2`` under pinned BLAS, starts the helper lane.  Exiting joins the
    helper, drops the replica and restores every layer's simulation state,
    noise stream and memo, even when the body raises.
    """

    def __init__(
        self,
        target: Any,
        configs: Sequence[SimConfig],
        rngs: Sequence[RandomState],
        profile: Any = None,
        lanes: int = 2,
    ):
        if lanes not in (1, 2):
            raise ValueError(f"MultiSession runs one or two lanes, got {lanes}")
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
        self.lanes = lanes
        self._session: Optional[Session] = None
        self._layers: List[Any] = []
        self._saved_rngs: List[RandomState] = []
        self._scenarios: List[List[_ScenarioPack]] = []
        self._by_encoding: List[List[int]] = []
        self._lane: Optional[_HelperLane] = None

    def forward(self, inputs) -> List[Any]:
        """Every scenario's logits for one input batch, in config order.

        Scenario ``k`` draws its noise from ``rngs[k]``.  Returns, or
        raises, only once both lanes are done with the batch; an error on
        the helper lane is raised here.
        """
        stem = self.target.forward_stem(inputs)
        lane = self._lane
        if lane is None:
            logits: List[Any] = [None] * len(self.configs)
            for scenarios in self._by_encoding:
                self._fill_memo(stem, scenarios)
                runs = self._run_lane(self.target, self._layers, scenarios, stem)
                for k, scenario_logits in zip(scenarios, runs):
                    logits[k] = scenario_logits
            return logits
        self._fill_memo(stem, range(len(self.configs)))
        lane.start(stem)
        try:
            logits = self._run_lane(self.target, self._layers, range(lane.first), stem)
        finally:
            rest = lane.result()
        return logits + rest

    def _fill_memo(self, stem, scenarios) -> None:
        """The first layer's read of ``stem`` in each of ``scenarios``'
        encodings, and no other."""
        first = self._layers[0]
        memo = first._read_memo
        memo.sealed = False
        memo.reads = {}
        for k in scenarios:
            self._scenarios[k][0].select(first)
            memo.read(first, stem)
        memo.sealed = True

    def _run_lane(self, model, layers, scenarios, stem) -> List[Any]:
        """The logits of ``scenarios``, one after the other, on ``model``."""
        logits = []
        for k in scenarios:
            for layer, pack in zip(layers, self._scenarios[k]):
                pack.select(layer)
                layer.noise_rng = self.rngs[k]
            logits.append(model.forward_body(stem))
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
                schedule = per_layer(config.pulses, len(layers), "pulses")
                sigmas = per_layer(config.noise_sigma, len(layers), "noise_sigma")
                self._scenarios.append(
                    [
                        _ScenarioPack(
                            mode=config.mode,
                            num_pulses=(
                                schedule[index] if schedule is not None else state.num_pulses
                            ),
                            sigma=sigmas[index],
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
        by_encoding: dict = {}
        for k, packs in enumerate(self._scenarios):
            packs[0].select(layers[0])
            by_encoding.setdefault(layers[0]._encoding_key(), []).append(k)
        self._by_encoding = list(by_encoding.values())
        if self.lanes == 2 and len(self.configs) > 1 and blas_pinned():
            try:
                self._lane = _HelperLane(self, first=(len(self.configs) + 1) // 2)
            except BaseException:
                self.__exit__(None, None, None)
                raise
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        try:
            if self._lane is not None:
                self._lane.close()
                self._lane = None
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


class _HelperLane:
    """The scenarios from ``first`` on, run on a replica by one helper thread.

    :meth:`start` hands the helper a batch's stem, with a copy of the
    calling thread's :mod:`contextvars` context to run it in, and
    :meth:`result` waits for that batch's logits or raises the helper's
    error.  Each :meth:`start` must be followed by one :meth:`result`.
    """

    def __init__(self, session: MultiSession, first: int) -> None:
        self.first = first
        self._session = session
        # Shared, not copied: the engine instances the model is pinned to,
        # the read memo and the streams (each lane installs its own).
        shared = [
            item
            for layer in session._layers
            for item in (layer._engine, layer.noise_rng, layer._read_memo)
        ]
        self._replica = copy.deepcopy(session.target, {id(item): item for item in shared})
        self._layers = encoded_layers_of(self._replica)
        self._stems: "queue.SimpleQueue" = queue.SimpleQueue()
        self._ahead = StepAhead(self._batches(), window=1, name="eval-lane")
        self._results = iter(self._ahead)

    def _batches(self):
        """The helper's items: each batch's logits, once the caller sends it."""
        scenarios = range(self.first, len(self._session.configs))
        for stem, context in iter(self._stems.get, None):
            yield context.run(
                self._session._run_lane, self._replica, self._layers, scenarios, stem
            )

    def start(self, stem) -> None:
        self._stems.put((stem, contextvars.copy_context()))

    def result(self) -> List[Any]:
        logits = next(self._results, None)
        if logits is None:
            raise RuntimeError("the helper lane stopped at an earlier error")
        return logits

    def close(self) -> None:
        """Join the helper; it is idle between batches."""
        self._stems.put(None)
        self._ahead.close()
