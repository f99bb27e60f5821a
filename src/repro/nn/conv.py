"""2-D convolution implemented with im2col + matrix multiplication.

The same lowering (patch matrix times flattened kernel matrix) is the one a
crossbar accelerator performs physically: each output channel corresponds to
one crossbar column, each input patch to one voltage vector.  This makes the
later replacement of the matmul by a noisy crossbar MVM (see
:mod:`repro.core.encoder_layer`) a one-line substitution.
"""

from __future__ import annotations

from typing import Optional

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor
from repro.tensor import functional as F
from repro.tensor.random import RandomState


class Conv2d(Module):
    """2-D convolution over NCHW inputs.

    Parameters
    ----------
    in_channels, out_channels:
        Number of input / output feature maps.
    kernel_size:
        Side length of the square kernel.
    stride, padding:
        Convolution stride and symmetric zero padding.
    bias:
        Whether to learn a per-channel additive bias.
    rng:
        Optional random state for reproducible initialisation.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: int = 1,
        bias: bool = True,
        rng: Optional[RandomState] = None,
    ):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            init.kaiming_normal((out_channels, in_channels, kernel_size, kernel_size), rng=rng),
            name="weight",
        )
        self.bias: Optional[Parameter] = None
        if bias:
            self.bias = Parameter(init.zeros((out_channels,)), name="bias")

    @property
    def fan_in(self) -> int:
        """Number of synapses feeding one output neuron (crossbar row count)."""
        return self.in_channels * self.kernel_size * self.kernel_size

    def forward(self, x: Tensor) -> Tensor:
        """Convolve a ``(batch, in_channels, H, W)`` tensor."""
        out = self.convolve(x, self.weight)
        if self.bias is not None:
            out = out + self.bias.reshape(1, self.out_channels, 1, 1)
        return out

    def convolve(self, x: Tensor, weight: Tensor) -> Tensor:
        """``x`` convolved with ``weight`` (no bias): one matmul over im2col
        columns.  The quantised subclass passes its binarised weight through
        this same lowering; the encoded one reads through its fused op (see
        :mod:`repro.core.encoder_layer`), which equals it bit for bit."""
        batch, _, height, width = x.shape
        out_h = F.conv_output_size(height, self.kernel_size, self.stride, self.padding)
        out_w = F.conv_output_size(width, self.kernel_size, self.stride, self.padding)

        cols = F.im2col_tensor(x, self.kernel_size, self.stride, self.padding)
        kernel_matrix = weight.reshape(self.out_channels, -1)
        out = kernel_matrix.matmul(cols)  # (out_channels, out_h*out_w*batch)
        # im2col orders columns spatial-major (out_h, out_w, batch); undo that.
        return out.reshape(self.out_channels, out_h, out_w, batch).transpose(3, 0, 1, 2)

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, kernel_size={self.kernel_size}, "
            f"stride={self.stride}, padding={self.padding}, bias={self.bias is not None})"
        )
