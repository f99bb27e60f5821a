"""Network architectures used by the reproduction.

:class:`VGG9` is the paper's evaluation architecture (Section IV-A) and
the model of the ``fast`` and ``paper`` profiles.  :class:`CrossbarMLP` is
the ``smoke`` profile's model and the quick model of several examples;
:class:`CrossbarLeNet` is the small convolutional model that
``examples/layer_sensitivity.py`` probes layer by layer.  Both exist because
a full VGG forward pass is slow on a pure-numpy backend.
"""

from repro.models.vgg import VGG9, VGGConfig
from repro.models.mlp import CrossbarMLP
from repro.models.lenet import CrossbarLeNet

__all__ = ["VGG9", "VGGConfig", "CrossbarMLP", "CrossbarLeNet"]
