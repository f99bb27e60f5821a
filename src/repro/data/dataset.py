"""Dataset abstractions."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


class Dataset:
    """Minimal map-style dataset interface: ``__len__`` and ``__getitem__``.

    ``__getitem__`` returns an ``(image, label)`` pair where the image is a
    float numpy array and the label an integer.
    """

    def __len__(self) -> int:
        raise NotImplementedError

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        raise NotImplementedError


class TensorDataset(Dataset):
    """Dataset backed by pre-materialised arrays of inputs and labels."""

    def __init__(self, inputs: np.ndarray, labels: np.ndarray):
        inputs = np.asarray(inputs, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if len(inputs) != len(labels):
            raise ValueError(
                f"inputs and labels must have the same length, got {len(inputs)} vs {len(labels)}"
            )
        self.inputs = inputs
        self.labels = labels

    def __len__(self) -> int:
        return len(self.inputs)

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        return self.inputs[index], int(self.labels[index])

    @property
    def num_classes(self) -> int:
        """Number of distinct labels present."""
        return int(self.labels.max()) + 1 if len(self.labels) else 0


class Subset(Dataset):
    """View of a dataset restricted to a list of indices."""

    def __init__(self, dataset: Dataset, indices: Sequence[int]):
        self.dataset = dataset
        self.indices = list(int(i) for i in indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        return self.dataset[self.indices[index]]
