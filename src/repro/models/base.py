"""The crossbar-mapping protocol shared by every model in :mod:`repro.models`."""

from __future__ import annotations

from typing import List

from repro.core.encoder_layer import EncodedLayerMixin
from repro.core.schedule import PulseSchedule
from repro.tensor import Tensor


class EncodedModelMixin:
    """Access to a model's crossbar-mapped (encoded) layers.

    A model lists the attribute names of its encoded layers, in forward
    order, in ``_encoded_names``.  Everything that configures or inspects
    those layers — :mod:`repro.sim`, the trainers, the cost model — goes
    through these methods.

    A model's forward is split in two: :meth:`forward_stem`, the
    deterministic layers before the first encoded layer, and
    :meth:`forward_body`, the first encoded layer onwards.  A
    :class:`repro.sim.MultiSession` runs the stem once per batch and the
    body once per scenario.
    """

    _encoded_names: List[str]

    def forward(self, x: Tensor) -> Tensor:
        """Class logits of an input batch."""
        return self.forward_body(self.forward_stem(x))

    def forward_stem(self, x: Tensor) -> Tensor:
        """The layers before the first encoded layer (no simulation state)."""
        raise NotImplementedError

    def forward_body(self, x: Tensor) -> Tensor:
        """Class logits from the stem's output: the first encoded layer onwards."""
        raise NotImplementedError

    def encoded_layers(self) -> List[EncodedLayerMixin]:
        """The encoded layers, in forward order."""
        return [getattr(self, name) for name in self._encoded_names]

    def encoded_layer_names(self) -> List[str]:
        """Names of the encoded layers (matches :meth:`encoded_layers` order)."""
        return list(self._encoded_names)

    def num_encoded_layers(self) -> int:
        """Number of encoded layers."""
        return len(self._encoded_names)

    def current_schedule(self) -> PulseSchedule:
        """The pulse counts currently configured on the encoded layers."""
        return PulseSchedule([layer.num_pulses for layer in self.encoded_layers()])
