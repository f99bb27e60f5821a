"""Activation function layers.

The paper confines activations to ``[-1, 1]`` with a hyperbolic tangent so
that the 9-level quantiser and the pulse encodings have a bounded range.
"""

from __future__ import annotations

from repro.nn.module import Module
from repro.tensor import Tensor


class Tanh(Module):
    """Elementwise hyperbolic tangent, output in ``(-1, 1)``."""

    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()

    def __repr__(self) -> str:
        return "Tanh()"
