"""Quantisation-aware layers.

``QuantConv2d`` and ``QuantLinear`` carry full-precision shadow weights but
always compute with their binarised values, which is how the BWNN is
pre-trained before being mapped to the crossbar.
"""

from __future__ import annotations

from typing import Optional

from repro.nn.conv import Conv2d
from repro.nn.linear import Linear
from repro.quant.binary import BinaryWeightQuantizer, ScaleMode
from repro.tensor import Tensor
from repro.tensor.random import RandomState


class QuantConv2d(Conv2d):
    """Conv2d whose forward pass uses binarised weights (STE gradients)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: int = 1,
        bias: bool = False,
        scale_mode: ScaleMode = "none",
        rng: Optional[RandomState] = None,
    ):
        super().__init__(
            in_channels, out_channels, kernel_size, stride, padding, bias=bias, rng=rng
        )
        self.quantizer = BinaryWeightQuantizer(scale_mode=scale_mode)

    def binary_weight(self) -> Tensor:
        """The binarised weight tensor actually used by the forward pass."""
        return self.quantizer(self.weight)

    def forward(self, x: Tensor) -> Tensor:
        out = self.convolve(x, self.binary_weight())
        if self.bias is not None:
            out = out + self.bias.reshape(1, self.out_channels, 1, 1)
        return out

    def __repr__(self) -> str:
        return (
            f"QuantConv2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, padding={self.padding}, "
            f"scale_mode={self.quantizer.scale_mode!r})"
        )


class QuantLinear(Linear):
    """Linear layer whose forward pass uses binarised weights (STE gradients)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = False,
        scale_mode: ScaleMode = "none",
        rng: Optional[RandomState] = None,
    ):
        super().__init__(in_features, out_features, bias=bias, rng=rng)
        self.quantizer = BinaryWeightQuantizer(scale_mode=scale_mode)

    def binary_weight(self) -> Tensor:
        """The binarised weight tensor actually used by the forward pass."""
        return self.quantizer(self.weight)

    def forward(self, x: Tensor) -> Tensor:
        out = x.matmul(self.binary_weight().transpose())
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return (
            f"QuantLinear(in_features={self.in_features}, out_features={self.out_features}, "
            f"scale_mode={self.quantizer.scale_mode!r})"
        )
