"""Shared pytest fixtures for the test-suite."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.data import DataLoader, SyntheticImageConfig, SyntheticImageDataset
from repro.models import CrossbarLeNet, CrossbarMLP
from repro.tensor.random import RandomState
from repro.utils.seed import seed_everything
from repro.utils.step_ahead import StepAheadThread


@pytest.fixture(autouse=True)
def _seed_everything():
    """Make every test deterministic regardless of execution order."""
    seed_everything(1234)
    yield


@pytest.fixture(autouse=True)
def _no_step_ahead_helper_left():
    """Fail a test that leaves a step-ahead helper thread running.

    GBO training (``gbo-prepare``) and stacked noisy evaluation's second
    lane (``eval-lane``) each join their helper before returning or raising;
    a helper still alive after a test is a leak in one of those pipelines.
    """
    yield
    alive = [t.name for t in threading.enumerate() if isinstance(t, StepAheadThread)]
    assert not alive, f"step-ahead helper thread(s) left running: {alive}"


@pytest.fixture
def rng() -> RandomState:
    """A fresh seeded random state."""
    return RandomState(7)


@pytest.fixture(scope="session")
def tiny_image_dataset() -> SyntheticImageDataset:
    """A very small synthetic image dataset (8x8, 10 classes, 64 samples)."""
    config = SyntheticImageConfig(image_size=8)
    return SyntheticImageDataset(64, config=config, seed=11)


@pytest.fixture(scope="session")
def tiny_loaders(tiny_image_dataset):
    """Train/test loaders over the tiny dataset."""
    train_loader = DataLoader(
        tiny_image_dataset, batch_size=16, shuffle=True, rng=RandomState(3)
    )
    test_loader = DataLoader(tiny_image_dataset, batch_size=16, shuffle=False)
    return train_loader, test_loader


@pytest.fixture
def small_mlp() -> CrossbarMLP:
    """A small crossbar MLP for 8x8x3 inputs."""
    return CrossbarMLP(
        in_features=3 * 8 * 8,
        hidden_sizes=(32, 32),
        num_classes=10,
        rng=RandomState(5),
    )


@pytest.fixture
def small_lenet() -> CrossbarLeNet:
    """A small crossbar LeNet for 8x8x3 inputs."""
    return CrossbarLeNet(
        num_classes=10,
        image_size=8,
        base_channels=4,
        rng=RandomState(5),
    )


@pytest.fixture
def image_batch(rng) -> np.ndarray:
    """A random batch of 4 images shaped (4, 3, 8, 8) in [0, 1]."""
    return rng.uniform(0.0, 1.0, size=(4, 3, 8, 8))
