"""Synthetic CIFAR-10-like image classification task.

The environment has no network access, so the CIFAR-10 images used by the
paper cannot be downloaded.  This module generates a deterministic,
procedurally-rendered 10-class dataset with the same tensor layout
(``3 x 32 x 32`` float images) and a difficulty that can be tuned through
texture noise.  Each class is defined by a distinctive combination of

* a base colour drawn from a fixed per-class palette,
* a geometric primitive (filled disc, ring, square, cross, stripes with a
  class-specific orientation/frequency, checkerboard, gradient, two-blob,
  triangle, or corner patch),
* multiplicative texture noise and additive pixel noise.

Because classes are distinguished by both colour statistics and spatial
structure, a convolutional network must learn localised filters to separate
them — exercising the same code path (quantised VGG9 on a noisy crossbar)
as CIFAR-10 does in the paper, which is what the reproduction measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.data.dataset import TensorDataset
from repro.tensor.random import RandomState

#: Fixed, perceptually distinct base colours (RGB in [0, 1]) for the 10 classes.
_CLASS_PALETTE = np.array(
    [
        [0.85, 0.25, 0.25],
        [0.25, 0.80, 0.30],
        [0.25, 0.35, 0.85],
        [0.85, 0.75, 0.25],
        [0.75, 0.30, 0.80],
        [0.25, 0.80, 0.80],
        [0.95, 0.55, 0.20],
        [0.55, 0.55, 0.55],
        [0.40, 0.25, 0.10],
        [0.90, 0.90, 0.90],
    ]
)


@dataclass
class SyntheticImageConfig:
    """Configuration of the synthetic image generator.

    Attributes
    ----------
    num_classes:
        Number of classes (at most 10 with the built-in palette/shapes).
    image_size:
        Side length of the square images.
    noise_level:
        Standard deviation of the additive pixel noise; larger values make
        the task harder.
    texture_strength:
        Amplitude of the multiplicative texture applied to each image.
    jitter:
        Maximum absolute offset (in pixels) applied to shape centres.
    """

    num_classes: int = 10
    image_size: int = 32
    noise_level: float = 0.15
    texture_strength: float = 0.25
    jitter: int = 4

    def __post_init__(self) -> None:
        if not 2 <= self.num_classes <= 10:
            raise ValueError(f"num_classes must be in [2, 10], got {self.num_classes}")
        if self.image_size < 8:
            raise ValueError(f"image_size must be at least 8, got {self.image_size}")


class SyntheticImageDataset(TensorDataset):
    """Procedurally generated image classification dataset.

    Parameters
    ----------
    num_samples:
        Total number of images (classes are balanced up to rounding).
    config:
        Generator configuration; defaults to the CIFAR-like profile.
    seed:
        Seed controlling every random choice, so train/test splits built from
        different seeds are disjoint in content but identically distributed.
    transform:
        Optional per-sample transform applied at access time.
    """

    def __init__(
        self,
        num_samples: int,
        config: Optional[SyntheticImageConfig] = None,
        seed: int = 0,
        transform=None,
    ):
        self.config = config or SyntheticImageConfig()
        self.seed = seed
        rng = RandomState(seed)
        images, labels = _generate(num_samples, self.config, rng)
        super().__init__(images, labels, transform=transform)


def make_synthetic_cifar(
    num_train: int = 2048,
    num_test: int = 512,
    config: Optional[SyntheticImageConfig] = None,
    seed: int = 0,
) -> Tuple[SyntheticImageDataset, SyntheticImageDataset]:
    """Build a (train, test) pair of synthetic CIFAR-like datasets.

    The two splits use different derived seeds so no image is shared.
    """
    train = SyntheticImageDataset(num_train, config=config, seed=seed)
    test = SyntheticImageDataset(num_test, config=config, seed=seed + 10_000)
    return train, test


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------
def _generate(
    num_samples: int, config: SyntheticImageConfig, rng: RandomState
) -> Tuple[np.ndarray, np.ndarray]:
    size = config.image_size
    images = np.zeros((num_samples, 3, size, size), dtype=np.float64)
    labels = rng.randint(0, config.num_classes, size=num_samples).astype(np.int64)
    grid = _PixelGrid(size)
    for index in range(num_samples):
        images[index] = _render_image(int(labels[index]), config, rng, grid)
    return images, labels


class _PixelGrid:
    """Per-size constants shared by every image rendered at that size."""

    def __init__(self, size: int):
        self.yy, self.xx = np.mgrid[0:size, 0:size].astype(np.float64)
        # np.roll(a, 1) / np.roll(a, -1) along one axis, as gather indices.
        positions = np.arange(size)
        self.previous = positions - 1
        self.following = (positions + 1) % size


def _render_image(
    label: int, config: SyntheticImageConfig, rng: RandomState, grid: _PixelGrid
) -> np.ndarray:
    size = config.image_size
    centre = size / 2.0
    jitter_y = rng.randint(-config.jitter, config.jitter + 1)
    jitter_x = rng.randint(-config.jitter, config.jitter + 1)
    cy, cx = centre + jitter_y, centre + jitter_x

    mask = _shape_mask(label, grid.yy, grid.xx, cy, cx, size, rng)

    base_colour = _CLASS_PALETTE[label]
    background = 0.5 + 0.1 * rng.normal(size=3)
    image = background[:, None, None] * (1.0 - mask) + base_colour[:, None, None] * mask

    # Multiplicative low-frequency texture makes intra-class variation.
    texture = 1.0 + config.texture_strength * _low_frequency_noise(size, rng, grid)
    image *= texture[None, :, :]
    # Additive pixel noise.
    image += config.noise_level * rng.normal(size=image.shape)
    return np.clip(image, 0.0, 1.0)


def _shape_mask(
    label: int,
    yy: np.ndarray,
    xx: np.ndarray,
    cy: float,
    cx: float,
    size: int,
    rng: RandomState,
) -> np.ndarray:
    """Binary-ish (soft-edged) mask of the class-specific primitive."""
    radius = size * (0.28 + 0.05 * rng.uniform())
    dist = np.sqrt((yy - cy) ** 2 + (xx - cx) ** 2)

    if label == 0:  # filled disc
        mask = (dist <= radius).astype(np.float64)
    elif label == 1:  # ring
        mask = ((dist <= radius) & (dist >= radius * 0.55)).astype(np.float64)
    elif label == 2:  # filled square
        half = radius * 0.9
        mask = ((np.abs(yy - cy) <= half) & (np.abs(xx - cx) <= half)).astype(np.float64)
    elif label == 3:  # cross / plus sign
        arm = radius * 0.35
        mask = ((np.abs(yy - cy) <= arm) | (np.abs(xx - cx) <= arm)).astype(np.float64)
    elif label == 4:  # diagonal stripes
        period = 4 + int(rng.randint(0, 3))
        mask = (((yy + xx) // period) % 2 == 0).astype(np.float64)
    elif label == 5:  # checkerboard
        period = 4 + int(rng.randint(0, 3))
        mask = (((yy // period) + (xx // period)) % 2 == 0).astype(np.float64)
    elif label == 6:  # horizontal gradient
        mask = xx / float(size - 1)
    elif label == 7:  # two blobs
        offset = size * 0.18
        d1 = np.sqrt((yy - cy) ** 2 + (xx - (cx - offset)) ** 2)
        d2 = np.sqrt((yy - cy) ** 2 + (xx - (cx + offset)) ** 2)
        mask = ((d1 <= radius * 0.5) | (d2 <= radius * 0.5)).astype(np.float64)
    elif label == 8:  # triangle (upper-left half of a square)
        half = radius
        in_square = (np.abs(yy - cy) <= half) & (np.abs(xx - cx) <= half)
        mask = (in_square & ((yy - cy) >= (xx - cx))).astype(np.float64)
    else:  # label == 9: bright corner patch
        mask = np.zeros_like(yy)
        corner = int(size * 0.45)
        mask[:corner, :corner] = 1.0

    return mask


def _low_frequency_noise(size: int, rng: RandomState, grid: _PixelGrid) -> np.ndarray:
    """Smooth spatial noise obtained by upsampling a coarse Gaussian grid."""
    coarse = rng.normal(size=(4, 4))
    # Bilinear-ish upsampling by repeating then box-smoothing twice.
    block = size // 4 + 1
    upsampled = np.repeat(np.repeat(coarse, block, axis=0), block, axis=1)[:size, :size]
    previous, following = grid.previous, grid.following
    kernel_passes = 2
    for _ in range(kernel_passes):
        # Each neighbour wraps around the border (a periodic box filter).
        upsampled = (
            upsampled
            + upsampled[previous]
            + upsampled[following]
            + upsampled[:, previous]
            + upsampled[:, following]
        ) / 5.0
    upsampled -= upsampled.mean()
    denom = np.abs(upsampled).max()
    if denom > 0:
        upsampled /= denom
    return upsampled
