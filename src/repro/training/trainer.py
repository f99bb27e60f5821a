"""Generic mini-batch training loop."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.nn.loss import CrossEntropyLoss
from repro.optim.lr_scheduler import LRScheduler
from repro.optim.optimizer import Optimizer
from repro.tensor import Tensor
from repro.training.evaluate import evaluate_accuracy
from repro.training.metrics import AverageMeter, accuracy_from_logits
from repro.utils.logging import get_logger

LOGGER = get_logger("repro.trainer")


@dataclass
class TrainingConfig:
    """Configuration of a generic training run.

    Attributes
    ----------
    epochs:
        Number of passes over the training loader.
    log_every:
        Emit a log line every this many steps (0 disables step logging).
    evaluate_every:
        Run validation every this many epochs (0 disables).
    """

    epochs: int = 10
    log_every: int = 0
    evaluate_every: int = 1

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be positive, got {self.epochs}")


class Trainer:
    """Runs mini-batch training of a model with a loss and an optimiser."""

    def __init__(
        self,
        model,
        optimizer: Optimizer,
        loss_fn=None,
        scheduler: Optional[LRScheduler] = None,
        config: Optional[TrainingConfig] = None,
    ):
        self.model = model
        self.optimizer = optimizer
        self.loss_fn = loss_fn or CrossEntropyLoss()
        self.scheduler = scheduler
        self.config = config or TrainingConfig()
        self.history: List[Dict[str, float]] = []

    def fit(self, train_loader, val_loader=None) -> List[Dict[str, float]]:
        """Train the model, returning the per-epoch metric history."""
        config = self.config
        step = 0
        for epoch in range(config.epochs):
            self.model.train()
            loss_meter = AverageMeter("loss")
            accuracy_meter = AverageMeter("accuracy")
            for inputs, targets in train_loader:
                self.optimizer.zero_grad()
                logits = self.model(Tensor(inputs))
                loss = self.loss_fn(logits, targets)
                loss.backward()
                self.optimizer.step()
                step += 1
                batch_size = len(targets)
                loss_meter.update(float(loss.data), weight=batch_size)
                accuracy_meter.update(accuracy_from_logits(logits, targets), weight=batch_size)
                if config.log_every and step % config.log_every == 0:
                    LOGGER.info("epoch %d step %d: loss=%.4f", epoch, step, float(loss.data))
            if self.scheduler is not None:
                self.scheduler.step()

            logs: Dict[str, float] = {
                "train_loss": loss_meter.average,
                "train_accuracy": accuracy_meter.average,
                "lr": self.optimizer.lr,
            }
            if val_loader is not None and config.evaluate_every and (epoch + 1) % config.evaluate_every == 0:
                logs["val_accuracy"] = evaluate_accuracy(self.model, val_loader)
            self.history.append({"epoch": float(epoch), **logs})
        return self.history
