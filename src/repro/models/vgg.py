"""VGG9 binary-weight network mapped on crossbars (paper Section IV-A).

The architecture follows the common binary-network VGG9 layout for CIFAR:

========  =======================================  ==============
layer     operation                                crossbar role
========  =======================================  ==============
conv1     3   -> c1, 3x3, BN, Tanh                 binary weights, *not* encoded
conv2     c1  -> c1, 3x3, BN, Tanh, MaxPool        encoded (layer 1 of 7)
conv3     c1  -> c2, 3x3, BN, Tanh                 encoded (layer 2)
conv4     c2  -> c2, 3x3, BN, Tanh, MaxPool        encoded (layer 3)
conv5     c2  -> c3, 3x3, BN, Tanh                 encoded (layer 4)
conv6     c3  -> c3, 3x3, BN, Tanh, MaxPool        encoded (layer 5)
fc1       c3*(s/8)^2 -> f,  BN, Tanh               encoded (layer 6)
fc2       f   -> f,  BN, Tanh                      encoded (layer 7)
fc3       f   -> num_classes                       classifier, not encoded
========  =======================================  ==============

with ``(c1, c2, c3, f) = (128, 256, 512, 1024)`` at full width.  The seven
*encoded* layers are exactly the seven pulse-count entries reported per row
of Table I.  The first convolution consumes the analog input image (not a
pulse train) and the final classifier is assumed to run digitally, following
the usual binary-network convention the paper inherits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.core.encoder_layer import EncodedConv2d, EncodedLayerMixin, EncodedLinear
from repro.models.base import EncodedModelMixin
from repro.nn import (
    BatchNorm1d,
    BatchNorm2d,
    Flatten,
    Linear,
    MaxPool2d,
    Module,
    Tanh,
)
from repro.quant.qat import QuantConv2d
from repro.tensor import Tensor
from repro.tensor.random import RandomState


@dataclass
class VGGConfig:
    """Structural configuration of the VGG9 network.

    Attributes
    ----------
    num_classes:
        Output classes (10 for the CIFAR-like task).
    in_channels:
        Input image channels.
    image_size:
        Input spatial resolution; must be divisible by 8 (three pools).
    width_multiplier:
        Scales every channel/feature count; 1.0 reproduces the paper-scale
        network, smaller values produce CPU-friendly variants with the same
        structure (the experiment profiles in :mod:`repro.experiments.profiles`
        pick the width).
    activation_levels:
        Number of activation quantisation levels (9 in the paper, i.e. an
        8-pulse thermometer baseline).
    noise_sigma:
        Initial per-pulse crossbar noise of the encoded layers (a
        :class:`~repro.sim.SimConfig` applied later replaces it).
    sigma_relative_to_fan_in:
        Interpretation of ``noise_sigma`` (see the crossbar noise model).
    """

    num_classes: int = 10
    in_channels: int = 3
    image_size: int = 32
    width_multiplier: float = 1.0
    activation_levels: int = 9
    noise_sigma: float = 0.0
    sigma_relative_to_fan_in: bool = False

    def __post_init__(self) -> None:
        if self.image_size % 8 != 0:
            raise ValueError(f"image_size must be divisible by 8, got {self.image_size}")
        if self.width_multiplier <= 0:
            raise ValueError(f"width_multiplier must be positive, got {self.width_multiplier}")

    def channel(self, base: int, minimum: int = 8) -> int:
        """Scale a base channel count by the width multiplier."""
        return max(minimum, int(round(base * self.width_multiplier)))


class VGG9(EncodedModelMixin, Module):
    """The paper's VGG9 binary-weight network with crossbar-encoded layers."""

    #: Base (full-width) channel and feature sizes.
    BASE_CONV_CHANNELS = (128, 256, 512)
    BASE_FC_FEATURES = 1024

    def __init__(self, config: Optional[VGGConfig] = None, rng: Optional[RandomState] = None):
        super().__init__()
        self.config = config or VGGConfig()
        cfg = self.config
        weight_rng = rng

        c1 = cfg.channel(self.BASE_CONV_CHANNELS[0])
        c2 = cfg.channel(self.BASE_CONV_CHANNELS[1])
        c3 = cfg.channel(self.BASE_CONV_CHANNELS[2])
        fc = cfg.channel(self.BASE_FC_FEATURES, minimum=16)
        spatial = cfg.image_size // 8
        flat_features = c3 * spatial * spatial

        encoded_kwargs = dict(
            activation_levels=cfg.activation_levels,
            noise_sigma=cfg.noise_sigma,
            sigma_relative_to_fan_in=cfg.sigma_relative_to_fan_in,
            weight_rng=weight_rng,
        )

        # Stem: consumes the raw image, therefore not pulse encoded.
        self.conv1 = QuantConv2d(cfg.in_channels, c1, kernel_size=3, padding=1, rng=weight_rng)
        self.bn1 = BatchNorm2d(c1)
        self.act1 = Tanh()

        # Encoded feature extractor (7 crossbar-mapped layers).
        self.conv2 = EncodedConv2d(c1, c1, kernel_size=3, padding=1, **encoded_kwargs)
        self.bn2 = BatchNorm2d(c1)
        self.act2 = Tanh()
        self.pool2 = MaxPool2d(2)

        self.conv3 = EncodedConv2d(c1, c2, kernel_size=3, padding=1, **encoded_kwargs)
        self.bn3 = BatchNorm2d(c2)
        self.act3 = Tanh()

        self.conv4 = EncodedConv2d(c2, c2, kernel_size=3, padding=1, **encoded_kwargs)
        self.bn4 = BatchNorm2d(c2)
        self.act4 = Tanh()
        self.pool4 = MaxPool2d(2)

        self.conv5 = EncodedConv2d(c2, c3, kernel_size=3, padding=1, **encoded_kwargs)
        self.bn5 = BatchNorm2d(c3)
        self.act5 = Tanh()

        self.conv6 = EncodedConv2d(c3, c3, kernel_size=3, padding=1, **encoded_kwargs)
        self.bn6 = BatchNorm2d(c3)
        self.act6 = Tanh()
        self.pool6 = MaxPool2d(2)

        self.flatten = Flatten()
        self.fc1 = EncodedLinear(flat_features, fc, **encoded_kwargs)
        self.bn_fc1 = BatchNorm1d(fc)
        self.act_fc1 = Tanh()

        self.fc2 = EncodedLinear(fc, fc, **encoded_kwargs)
        self.bn_fc2 = BatchNorm1d(fc)
        self.act_fc2 = Tanh()

        # Digital classifier head (full precision weights).
        self.classifier = Linear(fc, cfg.num_classes, rng=weight_rng)

        self._encoded_names = ["conv2", "conv3", "conv4", "conv5", "conv6", "fc1", "fc2"]

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def forward_stem(self, x: Tensor) -> Tensor:
        """The analog-input convolution of a ``(batch, C, H, W)`` image tensor."""
        return self.act1(self.bn1(self.conv1(x)))

    def forward_body(self, out: Tensor) -> Tensor:
        out = self.pool2(self.act2(self.bn2(self.conv2(out))))
        out = self.act3(self.bn3(self.conv3(out)))
        out = self.pool4(self.act4(self.bn4(self.conv4(out))))
        out = self.act5(self.bn5(self.conv5(out)))
        out = self.pool6(self.act6(self.bn6(self.conv6(out))))

        out = self.flatten(out)
        out = self.act_fc1(self.bn_fc1(self.fc1(out)))
        out = self.act_fc2(self.bn_fc2(self.fc2(out)))
        return self.classifier(out)

    def iter_encoded(self) -> Iterator[EncodedLayerMixin]:
        """Iterate over encoded layers."""
        return iter(self.encoded_layers())

    def __repr__(self) -> str:
        cfg = self.config
        return (
            f"VGG9(width_multiplier={cfg.width_multiplier}, image_size={cfg.image_size}, "
            f"num_classes={cfg.num_classes}, params={self.num_parameters()})"
        )
