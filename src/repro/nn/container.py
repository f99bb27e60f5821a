"""Shape utility modules."""

from __future__ import annotations

from repro.nn.module import Module
from repro.tensor import Tensor


class Flatten(Module):
    """Flatten all dimensions after the batch dimension."""

    def forward(self, x: Tensor) -> Tensor:
        return x.flatten(start_dim=1)

    def __repr__(self) -> str:
        return "Flatten()"
