"""LeNet-style small convolutional network with crossbar-encoded layers.

A middle ground between :class:`~repro.models.mlp.CrossbarMLP` and the full
VGG9: two encoded convolutions and one encoded fully-connected layer, small
enough for integration tests yet structurally identical to the paper's
setting (binary weights, quantised activations, per-layer pulse counts).
"""

from __future__ import annotations

from typing import Optional

from repro.core.encoder_layer import EncodedConv2d, EncodedLinear
from repro.models.base import EncodedModelMixin
from repro.nn import BatchNorm1d, BatchNorm2d, Flatten, Linear, MaxPool2d, Module, Tanh
from repro.quant.qat import QuantConv2d
from repro.tensor import Tensor
from repro.tensor.random import RandomState


class CrossbarLeNet(EncodedModelMixin, Module):
    """Small CNN: stem conv + 2 encoded convs + 1 encoded FC + classifier."""

    def __init__(
        self,
        num_classes: int = 10,
        in_channels: int = 3,
        image_size: int = 32,
        base_channels: int = 16,
        activation_levels: int = 9,
        noise_sigma: float = 0.0,
        sigma_relative_to_fan_in: bool = False,
        rng: Optional[RandomState] = None,
    ):
        super().__init__()
        if image_size % 4 != 0:
            raise ValueError(f"image_size must be divisible by 4, got {image_size}")
        self.num_classes = num_classes
        c = base_channels
        encoded_kwargs = dict(
            activation_levels=activation_levels,
            noise_sigma=noise_sigma,
            sigma_relative_to_fan_in=sigma_relative_to_fan_in,
            weight_rng=rng,
        )

        self.conv1 = QuantConv2d(in_channels, c, kernel_size=3, padding=1, rng=rng)
        self.bn1 = BatchNorm2d(c)
        self.act1 = Tanh()
        self.pool1 = MaxPool2d(2)

        self.conv2 = EncodedConv2d(c, 2 * c, kernel_size=3, padding=1, **encoded_kwargs)
        self.bn2 = BatchNorm2d(2 * c)
        self.act2 = Tanh()
        self.pool2 = MaxPool2d(2)

        self.conv3 = EncodedConv2d(2 * c, 2 * c, kernel_size=3, padding=1, **encoded_kwargs)
        self.bn3 = BatchNorm2d(2 * c)
        self.act3 = Tanh()

        spatial = image_size // 4
        self.flatten = Flatten()
        self.fc1 = EncodedLinear(2 * c * spatial * spatial, 4 * c, **encoded_kwargs)
        self.bn_fc1 = BatchNorm1d(4 * c)
        self.act_fc1 = Tanh()
        self.classifier = Linear(4 * c, num_classes, rng=rng)

        self._encoded_names = ["conv2", "conv3", "fc1"]

    def forward_stem(self, x: Tensor) -> Tensor:
        """The stem convolution block of a ``(batch, C, H, W)`` image tensor."""
        return self.pool1(self.act1(self.bn1(self.conv1(x))))

    def forward_body(self, out: Tensor) -> Tensor:
        out = self.pool2(self.act2(self.bn2(self.conv2(out))))
        out = self.act3(self.bn3(self.conv3(out)))
        out = self.flatten(out)
        out = self.act_fc1(self.bn_fc1(self.fc1(out)))
        return self.classifier(out)

    def __repr__(self) -> str:
        return f"CrossbarLeNet(num_classes={self.num_classes}, params={self.num_parameters()})"
