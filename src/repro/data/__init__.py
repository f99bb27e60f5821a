"""Data pipeline: datasets, loaders and the synthetic image task.

The reproduction runs offline, where CIFAR-10 cannot be downloaded, so it
ships :mod:`repro.data.synthetic` — a deterministic procedural generator of
32x32x3 ten-class images with CIFAR-10's tensor shapes and a comparable
learnability profile.
"""

from repro.data.dataset import Dataset, TensorDataset, Subset
from repro.data.dataloader import DataLoader
from repro.data.synthetic import SyntheticImageDataset, SyntheticImageConfig, make_synthetic_cifar

__all__ = [
    "Dataset",
    "TensorDataset",
    "Subset",
    "DataLoader",
    "SyntheticImageDataset",
    "SyntheticImageConfig",
    "make_synthetic_cifar",
]
