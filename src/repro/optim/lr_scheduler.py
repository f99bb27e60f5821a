"""Learning-rate schedulers.

The paper's pre-training recipe decays the learning rate by a factor of ten
at 50%, 70% and 90% of the total epoch budget; this is provided directly by
:class:`MilestoneFractionLR`.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.optim.optimizer import Optimizer


class LRScheduler:
    """Base class: tracks the epoch counter and rewrites ``optimizer.lr``."""

    def __init__(self, optimizer: Optimizer):
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.last_epoch = 0

    def get_lr(self) -> float:
        """Learning rate for the current epoch; implemented by subclasses."""
        raise NotImplementedError

    def step(self) -> None:
        """Advance one epoch and update the optimiser's learning rate."""
        self.last_epoch += 1
        self.optimizer.lr = self.get_lr()

    @property
    def current_lr(self) -> float:
        """The learning rate currently applied by the optimiser."""
        return self.optimizer.lr


class MultiStepLR(LRScheduler):
    """Decay the learning rate by ``gamma`` at each epoch in ``milestones``."""

    def __init__(self, optimizer: Optimizer, milestones: Sequence[int], gamma: float = 0.1):
        super().__init__(optimizer)
        self.milestones: List[int] = sorted(int(m) for m in milestones)
        self.gamma = gamma

    def get_lr(self) -> float:
        passed = sum(1 for milestone in self.milestones if self.last_epoch >= milestone)
        return self.base_lr * self.gamma ** passed


class MilestoneFractionLR(MultiStepLR):
    """Decay at fixed fractions of the total number of epochs.

    The paper uses decay factor 10 at 50%, 70% and 90% of training
    (Section IV-A); those are the default fractions.
    """

    def __init__(
        self,
        optimizer: Optimizer,
        total_epochs: int,
        fractions: Sequence[float] = (0.5, 0.7, 0.9),
        gamma: float = 0.1,
    ):
        milestones = [max(1, int(round(total_epochs * fraction))) for fraction in fractions]
        super().__init__(optimizer, milestones=milestones, gamma=gamma)
        self.total_epochs = total_epochs
        self.fractions = tuple(fractions)
