"""Pre-training recipe for the binary-weight network (paper Section IV-A).

The paper pre-trains the quantised VGG9 with plain cross-entropy before any
noise is considered: SGD with momentum 0.9, weight decay 5e-4, base learning
rate 1e-3, and a step schedule that divides the rate by 10 at 50/70/90% of
the epochs.  Activations are quantised to 9 levels and weights to binary
throughout pre-training (the quantisers are built into the model's layers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.optim import SGD, MilestoneFractionLR
from repro.sim import SimConfig, apply_config
from repro.training.trainer import Trainer, TrainingConfig


@dataclass
class PretrainConfig:
    """Hyper-parameters of the pre-training stage.

    Defaults follow Section IV-A of the paper; the benchmark profiles shrink
    ``epochs`` because a pure-numpy backend on a CPU is orders of magnitude
    slower than the authors' GPU setup.
    """

    epochs: int = 60
    learning_rate: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 5e-4
    lr_decay_fractions: tuple = (0.5, 0.7, 0.9)
    lr_decay_gamma: float = 0.1
    log_every: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be positive, got {self.epochs}")


def pretrain_model(
    model, train_loader, val_loader=None, config: Optional[PretrainConfig] = None
) -> List[Dict[str, float]]:
    """Pre-train a crossbar model with the paper's recipe.

    All encoded layers are put in ``clean`` mode (no crossbar noise) so the
    network learns the task first; noise robustness is addressed afterwards
    by PLA / GBO / NIA.

    Returns the per-epoch history produced by the :class:`Trainer`.
    """
    config = config or PretrainConfig()
    apply_config(model, SimConfig(mode="clean"))
    optimizer = SGD(
        model.parameters(),
        lr=config.learning_rate,
        momentum=config.momentum,
        weight_decay=config.weight_decay,
    )
    scheduler = MilestoneFractionLR(
        optimizer,
        total_epochs=config.epochs,
        fractions=config.lr_decay_fractions,
        gamma=config.lr_decay_gamma,
    )
    trainer = Trainer(
        model,
        optimizer,
        scheduler=scheduler,
        config=TrainingConfig(epochs=config.epochs, log_every=config.log_every),
    )
    return trainer.fit(train_loader, val_loader=val_loader)
