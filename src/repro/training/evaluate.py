"""Model evaluation helpers (clean and noisy crossbar inference)."""

from __future__ import annotations

from typing import Any, List, Sequence

import numpy as np

from repro.sim import MultiSession, SimConfig, Session
from repro.tensor import Tensor, no_grad
from repro.tensor import functional as F
from repro.training.metrics import AverageMeter, accuracy_from_logits


def evaluate_accuracy(model, loader) -> float:
    """Top-1 accuracy (percent) of ``model`` over ``loader``.

    The model is switched to eval mode and no computation graph is recorded.
    The encoded layers keep whatever forward mode (clean / noisy) they were
    configured with, so this function serves both clean and noisy evaluation.
    """
    was_training = model.training
    model.eval()
    meter = AverageMeter("accuracy")
    try:
        with no_grad():
            for inputs, targets in loader:
                logits = model(Tensor(inputs))
                meter.update(accuracy_from_logits(logits, targets), weight=len(targets))
    finally:
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
    size.  With two or more configs and BLAS pinned to one thread, the
    scenarios run in two lanes: this thread runs the first half on
    ``model``, and one helper thread the rest on a replica, each lane
    drawing its own scenarios' noise.  See
    :class:`repro.sim.MultiSession` for the lanes and the bit-identity
    argument.  Repeats continue each scenario's stream inside one session,
    matching the sequential ``num_repeats`` loop.  The helper is joined,
    and ``model``'s train mode restored, before this function returns or
    raises.
    """
    if num_repeats < 1:
        raise ValueError(f"num_repeats must be positive, got {num_repeats}")
    was_training = model.training
    model.eval()
    num_scenarios = len(sims)
    accuracies: List[List[float]] = [[] for _ in range(num_scenarios)]
    try:
        with MultiSession(model, sims, rngs=rngs, profile=profile) as session, no_grad():
            for _ in range(num_repeats):
                meters = [AverageMeter("accuracy") for _ in range(num_scenarios)]
                for inputs, targets in loader:
                    for meter, logits in zip(meters, session.forward(Tensor(inputs))):
                        meter.update(
                            accuracy_from_logits(logits, targets), weight=len(targets)
                        )
                for scenario, meter in zip(accuracies, meters):
                    scenario.append(meter.average)
    finally:
        if was_training:
            model.train()
    return accuracies


def evaluate_loss(model, loader) -> float:
    """Mean cross-entropy of ``model`` over ``loader``."""
    was_training = model.training
    model.eval()
    meter = AverageMeter("loss")
    try:
        with no_grad():
            for inputs, targets in loader:
                logits = model(Tensor(inputs))
                loss = F.cross_entropy(logits, targets)
                meter.update(float(loss.data), weight=len(targets))
    finally:
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
