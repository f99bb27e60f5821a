"""Small crossbar-mapped multi-layer perceptron.

Used by tests and fast examples: same encoded-layer machinery as VGG9
(binary weights, 9-level activations, pulse-encoded inputs, crossbar noise)
but on flattened inputs, so a full training run finishes in seconds on the
numpy backend.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.encoder_layer import EncodedLinear
from repro.models.base import EncodedModelMixin
from repro.nn import BatchNorm1d, Linear, Module, Tanh
from repro.tensor import Tensor
from repro.tensor.random import RandomState


class CrossbarMLP(EncodedModelMixin, Module):
    """MLP whose hidden layers are crossbar-encoded binary-weight layers.

    Parameters
    ----------
    in_features:
        Flattened input dimensionality.
    hidden_sizes:
        Width of each hidden (encoded) layer; the number of encoded layers
        equals ``len(hidden_sizes)``.
    num_classes:
        Output classes of the digital classifier head.
    activation_levels:
        Activation quantisation levels of the encoded layers.
    noise_sigma:
        Initial per-pulse crossbar noise level.
    """

    def __init__(
        self,
        in_features: int,
        hidden_sizes: Sequence[int] = (128, 128),
        num_classes: int = 10,
        activation_levels: int = 9,
        noise_sigma: float = 0.0,
        sigma_relative_to_fan_in: bool = False,
        rng: Optional[RandomState] = None,
    ):
        super().__init__()
        if not hidden_sizes:
            raise ValueError("hidden_sizes must contain at least one layer")
        self.in_features = in_features
        self.hidden_sizes = tuple(int(h) for h in hidden_sizes)
        self.num_classes = num_classes

        # Stem: full precision projection of the raw input (not encoded).
        self.stem = Linear(in_features, self.hidden_sizes[0], rng=rng)
        self.stem_bn = BatchNorm1d(self.hidden_sizes[0])
        self.stem_act = Tanh()

        self._encoded_names: List[str] = []
        previous = self.hidden_sizes[0]
        for index, width in enumerate(self.hidden_sizes):
            name = f"enc{index}"
            layer = EncodedLinear(
                previous,
                width,
                activation_levels=activation_levels,
                noise_sigma=noise_sigma,
                sigma_relative_to_fan_in=sigma_relative_to_fan_in,
                weight_rng=rng,
            )
            self.add_module(name, layer)
            self.add_module(f"{name}_bn", BatchNorm1d(width))
            self.add_module(f"{name}_act", Tanh())
            self._encoded_names.append(name)
            previous = width

        self.classifier = Linear(previous, num_classes, rng=rng)

    def forward_stem(self, x: Tensor) -> Tensor:
        """The full-precision projection of a ``(batch, in_features)`` tensor (or images)."""
        if x.ndim > 2:
            x = x.flatten(start_dim=1)
        return self.stem_act(self.stem_bn(self.stem(x)))

    def forward_body(self, out: Tensor) -> Tensor:
        for name in self._encoded_names:
            layer = self._modules[name]
            bn = self._modules[f"{name}_bn"]
            act = self._modules[f"{name}_act"]
            out = act(bn(layer(out)))
        return self.classifier(out)

    def __repr__(self) -> str:
        return (
            f"CrossbarMLP(in_features={self.in_features}, hidden_sizes={self.hidden_sizes}, "
            f"num_classes={self.num_classes})"
        )
