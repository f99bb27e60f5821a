"""The crossbar-mapping protocol shared by every model in :mod:`repro.models`."""

from __future__ import annotations

from typing import List

from repro.core.encoder_layer import EncodedLayerMixin
from repro.core.schedule import PulseSchedule


class EncodedModelMixin:
    """Access to a model's crossbar-mapped (encoded) layers.

    A model lists the attribute names of its encoded layers, in forward
    order, in ``_encoded_names``.  Everything that configures or inspects
    those layers — :mod:`repro.sim`, the trainers, the cost model — goes
    through these methods.
    """

    _encoded_names: List[str]

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
