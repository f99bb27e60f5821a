"""Layer-wise noise-sensitivity analysis (Fig. 2 of the paper).

The experiment injects Gaussian crossbar noise into **one** encoded layer at
a time, evaluates the classification accuracy, and thereby ranks the layers
by how much their noise hurts the network.  The heterogeneous sensitivities
it reveals are the motivation for optimising a different pulse length per
layer instead of lengthening every layer uniformly.

Each target layer is one whole-model :class:`~repro.sim.SimConfig`: every
layer noisy, sigma at the target and zero elsewhere (a zero-sigma layer
draws no noise), and pulses at the target with every other layer at its
``base_pulses`` (where no PLA re-encoding happens).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.sim import SimConfig
from repro.training.evaluate import noisy_accuracy


@dataclass
class LayerSensitivity:
    """Accuracy obtained when only one layer is noisy."""

    layer_index: int
    layer_name: str
    accuracy: float


def layer_noise_sensitivity(
    model,
    loader,
    sigma: float,
    pulses: int = 8,
    sigma_relative_to_fan_in: bool = False,
) -> List[LayerSensitivity]:
    """Evaluate accuracy with noise injected into each encoded layer in turn.

    The targets run one after the other on the current context's stream,
    each through :func:`~repro.training.evaluate.noisy_accuracy`, so the
    model keeps the simulation state it had before the call.

    Parameters
    ----------
    model:
        Model exposing ``encoded_layers()`` and ``encoded_layer_names()``
        in forward order.
    loader:
        Evaluation data loader.
    sigma:
        Per-pulse noise standard deviation injected into the target layer.
    pulses:
        Pulse count of the target layer during the noisy evaluation.
    """
    layers = list(model.encoded_layers())
    if not layers:
        raise ValueError("model has no encoded layers to analyse")
    results: List[LayerSensitivity] = []
    for target, name in enumerate(model.encoded_layer_names()):
        config = SimConfig(
            mode="noisy",
            pulses=tuple(
                pulses if index == target else layer.base_pulses
                for index, layer in enumerate(layers)
            ),
            noise_sigma=tuple(
                sigma if index == target else 0.0 for index in range(len(layers))
            ),
            sigma_relative_to_fan_in=sigma_relative_to_fan_in,
        )
        results.append(
            LayerSensitivity(
                layer_index=target,
                layer_name=name,
                accuracy=noisy_accuracy(model, loader, config),
            )
        )
    return results
