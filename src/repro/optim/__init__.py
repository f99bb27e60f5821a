"""Optimisers and learning-rate schedulers.

The paper pre-trains the binary-weight network with SGD (momentum 0.9,
weight decay 5e-4, step-wise learning-rate decay) and optimises the GBO
encoding logits with Adam; both optimisers are implemented here together
with the milestone scheduler of the pre-training recipe.
"""

from repro.optim.optimizer import Optimizer
from repro.optim.sgd import SGD
from repro.optim.adam import Adam
from repro.optim.lr_scheduler import LRScheduler, MultiStepLR, MilestoneFractionLR

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "LRScheduler",
    "MultiStepLR",
    "MilestoneFractionLR",
]
