"""Model evaluation helpers (clean and noisy crossbar inference)."""

from __future__ import annotations

import functools
import queue
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim import MultiSession, SimConfig, Session
from repro.tensor import Tensor, no_grad
from repro.tensor import functional as F
from repro.training.metrics import AverageMeter, accuracy_from_logits
from repro.utils.step_ahead import DrawReplay, StepAhead

#: How many noise draws :func:`evaluate_multi`'s helper thread may make
#: ahead of the forward: enough to keep the helper busy, few enough that
#: the noise in flight is a few layer outputs, never a scenario's batch.
DRAWS_AHEAD = 4


def evaluate_accuracy(model, loader) -> float:
    """Top-1 accuracy (percent) of ``model`` over ``loader``.

    The model is switched to eval mode and no computation graph is recorded.
    The encoded layers keep whatever forward mode (clean / noisy) they were
    configured with, so this function serves both clean and noisy evaluation.
    """
    was_training = model.training
    model.eval()
    meter = AverageMeter("accuracy")
    with no_grad():
        for inputs, targets in loader:
            logits = model(Tensor(inputs))
            meter.update(accuracy_from_logits(logits, targets), weight=len(targets))
    if was_training:
        model.train()
    return meter.average


def evaluate_multi(
    model,
    loader,
    sims: Sequence[SimConfig],
    rngs: Sequence[Any],
    profile: Any = None,
    num_repeats: int = 1,
) -> List[List[float]]:
    """Top-1 accuracy of K compatible configs, sharing the work per batch.

    Returns ``accuracies[k][r]`` — scenario ``k``'s accuracy on repeat
    ``r`` — exactly the numbers K sequential
    ``Session``/:func:`evaluate_accuracy` runs would produce, bit for bit,
    when each scenario is given the stream its sequential run would use
    (``rngs[k] = RandomState(seed_k)`` for a run seeded with ``seed_k``; the
    scenario runner derives these from spec hashes).

    Each batch is loaded and run through the model's stem once, and the
    first encoded layer quantises it once and reads it once per distinct
    encoding; the rest of the model runs once per scenario at the batch
    size.  See :class:`repro.sim.MultiSession` for the bit-identity
    argument.  Repeats continue each scenario's stream inside one session,
    matching the sequential ``num_repeats`` loop.

    The read noise is drawn on one helper thread, a few draws ahead of the
    forward (see :class:`_NoiseAhead`); this thread reads the loader and
    runs the stem, the first layer's reads, every scenario's body and the
    accuracy bookkeeping.  Each stream still sees exactly the
    ``normal`` calls of a step-by-step run, in order, and none after the
    last batch; a forward that diverges from them raises.  The helper is
    joined before this function returns or raises.
    """
    if num_repeats < 1:
        raise ValueError(f"num_repeats must be positive, got {num_repeats}")
    was_training = model.training
    model.eval()
    num_scenarios = len(sims)
    accuracies: List[List[float]] = [[] for _ in range(num_scenarios)]
    with MultiSession(
        model, sims, rngs=rngs, profile=profile
    ) as session, no_grad(), _NoiseAhead(session.rngs) as noise:
        for _ in range(num_repeats):
            meters = [AverageMeter("accuracy") for _ in range(num_scenarios)]
            for inputs, targets in loader:
                batch = Tensor(inputs)
                streams = noise.streams(batch.shape[0])
                for meter, logits in zip(meters, session.forward(batch, streams)):
                    meter.update(
                        accuracy_from_logits(logits, targets), weight=len(targets)
                    )
            for scenario, meter in zip(accuracies, meters):
                scenario.append(meter.average)
    if was_training:
        model.train()
    return accuracies


@dataclass(frozen=True)
class _Call:
    """One ``normal`` call of a batch's forward, as the first batch made it."""

    scenario: int
    stream: Any
    loc: float
    scale: float
    sample_shape: Tuple[int, ...]

    def draw(self, batch: int) -> np.ndarray:
        return self.stream.normal(self.loc, self.scale, (batch,) + self.sample_shape)


class _Recorder:
    """A scenario's stream on the first batch: draws on it, records the call."""

    def __init__(self, scenario: int, stream: Any, calls: list) -> None:
        self._scenario, self._stream, self._calls = scenario, stream, calls

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None) -> np.ndarray:
        self._calls.append((self._scenario, self._stream, loc, scale, size))
        return self._stream.normal(loc, scale, size)


def _draws(plan: List[_Call], sizes: "queue.SimpleQueue") -> Iterator[np.ndarray]:
    """The helper's items: every call of ``plan`` for each batch size in ``sizes``."""
    for batch in iter(sizes.get, None):
        for call in plan:
            yield call.draw(batch)


class _NoiseAhead:
    """Every scenario's read noise for :func:`evaluate_multi`, drawn ahead.

    :meth:`streams` gives the streams the next batch's forward draws from,
    one per scenario.  On the first batch they are recorders
    (:class:`_Recorder`): each draw is made on the scenario's own stream, on
    this thread, and its call recorded.  From the second batch on, one
    helper thread makes the recorded calls again, in order, with the batch
    size substituted, at most :data:`DRAWS_AHEAD` draws ahead; the forward
    takes them through stand-ins (:class:`~repro.utils.step_ahead.DrawReplay`).
    A batch's draws are made only once the loader has given that batch, so
    no stream is drawn past the last one.  A draw asked for by another
    scenario than the recorded order says, or beyond the batch's recorded
    calls, raises, and so does a batch that leaves one unused.  If the first
    batch draws nothing (clean and sigma-0 scenarios only) no helper starts.
    Leaving the block joins the helper.
    """

    def __init__(self, rngs: Sequence[Any]) -> None:
        self._rngs = list(rngs)
        self._first: Optional[int] = None  # the first batch's size
        self._calls: list = []  # the first batch's, as recorded
        self._plan: Optional[List[_Call]] = None
        self._sizes: "queue.SimpleQueue" = queue.SimpleQueue()
        self._ahead: Optional[StepAhead] = None
        self._items: Optional[Iterator[np.ndarray]] = None
        self._replays: List[DrawReplay] = []
        self._left = 0  # draws of the current batch not yet taken

    def streams(self, batch: int) -> List[Any]:
        """The streams of the next batch, of ``batch`` rows."""
        if self._first is None:
            self._first = batch
            return [
                _Recorder(scenario, stream, self._calls)
                for scenario, stream in enumerate(self._rngs)
            ]
        if self._plan is None:
            self._plan = self._recorded_plan()
            if self._plan:
                # Unlike GBO training, no keep_heap_resident(): on warm
                # eval_sweep_serial drains (2-CPU host) it cut this thread's
                # minor faults from about 4.8K to 26 per drain, but added
                # about 2 MB of peak RSS for about 1% of the time.
                self._ahead = StepAhead(
                    _draws(self._plan, self._sizes), DRAWS_AHEAD, name="eval-draws"
                )
                self._items = iter(self._ahead)
                self._replays = [
                    DrawReplay(functools.partial(self._take, scenario))
                    for scenario in range(len(self._rngs))
                ]
        if not self._plan:
            return self._rngs
        self._check_batch_drawn()
        self._left = len(self._plan)
        self._sizes.put(batch)
        return self._replays

    def _recorded_plan(self) -> List[_Call]:
        plan = []
        for scenario, stream, loc, scale, size in self._calls:
            if np.ndim(size) != 1 or not len(size) or size[0] != self._first:
                raise ValueError(
                    f"pipelined evaluation needs batch-leading noise draws; a batch "
                    f"of {self._first} drew size {size}"
                )
            plan.append(_Call(scenario, stream, loc, scale, tuple(size[1:])))
        return plan

    def _take(self, scenario: int) -> np.ndarray:
        """The next draw the helper made; ``scenario`` must be the one to take it."""
        if not self._left:
            raise RuntimeError("a forward drew more noise than the first batch did")
        expected = self._plan[len(self._plan) - self._left].scenario
        if scenario != expected:
            raise RuntimeError(
                f"scenario {scenario} drew noise where the first batch had "
                f"scenario {expected} draw"
            )
        self._left -= 1
        return next(self._items)

    def _check_batch_drawn(self) -> None:
        if self._left:
            raise RuntimeError(
                f"a forward left {self._left} prepared noise draw(s) of its batch unused"
            )

    def __enter__(self) -> "_NoiseAhead":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        if self._ahead is None:
            return False
        self._sizes.put(None)  # ends the helper's items once it has drawn
        try:
            if exc_type is None:
                self._check_batch_drawn()
        finally:
            self._ahead.close()
        return False


def evaluate_loss(model, loader) -> float:
    """Mean cross-entropy of ``model`` over ``loader``."""
    was_training = model.training
    model.eval()
    meter = AverageMeter("loss")
    with no_grad():
        for inputs, targets in loader:
            logits = model(Tensor(inputs))
            loss = F.cross_entropy(logits, targets)
            meter.update(float(loss.data), weight=len(targets))
    if was_training:
        model.train()
    return meter.average


def noisy_accuracy(model, loader, sim: SimConfig, num_repeats: int = 1) -> float:
    """Accuracy under crossbar noise, configured by a :class:`SimConfig`.

    The configuration is applied through a :class:`repro.sim.Session`: the
    model is evaluated under the config and restored to its previous state
    afterwards.

    Parameters
    ----------
    model:
        Model exposing ``encoded_layers()``.
    sim:
        The noisy-inference configuration (mode is forced to ``"noisy"``;
        ``pulses=None`` keeps the pulse counts currently configured on the
        model, ``engine=None`` the layers' engines).
    num_repeats:
        Number of independent noisy evaluations to average (noise is random,
        so repeated evaluation reduces the variance of the estimate).
    """
    if num_repeats < 1:
        raise ValueError(f"num_repeats must be positive, got {num_repeats}")
    with Session(model, sim.with_changes(mode="noisy")):
        accuracies = [evaluate_accuracy(model, loader) for _ in range(num_repeats)]
    return float(np.mean(accuracies))
