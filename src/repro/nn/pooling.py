"""Spatial pooling layers."""

from __future__ import annotations

from typing import Optional

from repro.nn.module import Module
from repro.tensor import Tensor
from repro.tensor import functional as F


class MaxPool2d(Module):
    """Max pooling over non-overlapping (or strided) spatial windows."""

    def __init__(self, kernel_size: int = 2, stride: Optional[int] = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, kernel=self.kernel_size, stride=self.stride)

    def __repr__(self) -> str:
        return f"MaxPool2d(kernel_size={self.kernel_size}, stride={self.stride})"
