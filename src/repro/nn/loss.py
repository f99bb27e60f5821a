"""Loss functions used for pre-training, NIA fine-tuning and GBO training."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.tensor import Tensor
from repro.tensor import functional as F


class CrossEntropyLoss(Module):
    """Softmax cross-entropy against integer class targets (mean reduction)."""

    def forward(self, logits: Tensor, targets: np.ndarray) -> Tensor:
        return F.cross_entropy(logits, targets)

    def __repr__(self) -> str:
        return "CrossEntropyLoss()"
