"""Classification metrics."""

from __future__ import annotations

import numpy as np

from repro.tensor import Tensor


def accuracy_from_logits(logits, targets: np.ndarray) -> float:
    """Top-1 accuracy in percent from logits and integer targets."""
    data = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    targets = np.asarray(targets)
    predictions = data.argmax(axis=1)
    return float((predictions == targets).mean() * 100.0)


class AverageMeter:
    """Tracks a running weighted average of a scalar quantity."""

    def __init__(self, name: str = ""):
        self.name = name
        self.reset()

    def reset(self) -> None:
        """Clear the accumulated statistics."""
        self.total = 0.0
        self.count = 0.0

    def update(self, value: float, weight: float = 1.0) -> None:
        """Add ``value`` with the given weight."""
        self.total += float(value) * weight
        self.count += weight

    @property
    def average(self) -> float:
        """Current weighted average (0 if nothing was recorded)."""
        return self.total / self.count if self.count else 0.0

    def __repr__(self) -> str:
        return f"AverageMeter(name={self.name!r}, average={self.average:.4f}, count={self.count})"
