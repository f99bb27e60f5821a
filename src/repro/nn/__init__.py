"""Neural-network layer library built on the :mod:`repro.tensor` autograd.

Provides the module/parameter system and the layers the paper's
binary-weight networks are built from: linear and convolution layers (the
bases of the quantised and crossbar-encoded layers), batch normalisation,
the ``Tanh`` activation that bounds every encoded input to ``[-1, 1]``,
max pooling, flattening, and the cross-entropy loss used for pre-training
and for the GBO objective.
"""

from repro.nn.module import Module, Parameter
from repro.nn.container import Flatten
from repro.nn.linear import Linear
from repro.nn.conv import Conv2d
from repro.nn.pooling import MaxPool2d
from repro.nn.batchnorm import BatchNorm1d, BatchNorm2d
from repro.nn.activations import Tanh
from repro.nn.loss import CrossEntropyLoss
from repro.nn import init

__all__ = [
    "Module",
    "Parameter",
    "Flatten",
    "Linear",
    "Conv2d",
    "MaxPool2d",
    "BatchNorm1d",
    "BatchNorm2d",
    "Tanh",
    "CrossEntropyLoss",
    "init",
]
