"""Tests for datasets, loaders, transforms, splits and the synthetic task."""

import hashlib

import numpy as np
import pytest

from repro.data import (
    Compose,
    DataLoader,
    Normalize,
    RandomCrop,
    RandomHorizontalFlip,
    Subset,
    SyntheticImageConfig,
    SyntheticImageDataset,
    TensorDataset,
    ToFloat,
    make_synthetic_cifar,
    train_val_split,
)
from repro.tensor.random import RandomState


class TestTensorDataset:
    def test_length_and_items(self):
        data = np.arange(12.0).reshape(6, 2)
        labels = np.arange(6) % 3
        dataset = TensorDataset(data, labels)
        assert len(dataset) == 6
        image, label = dataset[2]
        assert np.allclose(image, [4.0, 5.0])
        assert label == 2
        assert dataset.num_classes == 3

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            TensorDataset(np.zeros((3, 2)), np.zeros(4))

    def test_transform_applied(self):
        dataset = TensorDataset(np.ones((2, 3)), np.zeros(2), transform=lambda x: x * 2)
        image, _ = dataset[0]
        assert np.allclose(image, 2.0)

    def test_subset(self):
        dataset = TensorDataset(np.arange(10.0).reshape(10, 1), np.arange(10))
        subset = Subset(dataset, [7, 3])
        assert len(subset) == 2
        assert subset[0][1] == 7


class TestDataLoader:
    def test_batch_shapes(self):
        dataset = TensorDataset(np.zeros((10, 3, 4, 4)), np.zeros(10))
        loader = DataLoader(dataset, batch_size=4)
        batches = list(loader)
        assert len(batches) == 3
        assert batches[0][0].shape == (4, 3, 4, 4)
        assert batches[-1][0].shape == (2, 3, 4, 4)

    def test_drop_last(self):
        dataset = TensorDataset(np.zeros((10, 2)), np.zeros(10))
        loader = DataLoader(dataset, batch_size=4, drop_last=True)
        assert len(loader) == 2
        assert all(len(labels) == 4 for _, labels in loader)

    def test_shuffle_changes_order_but_not_content(self):
        labels = np.arange(32)
        dataset = TensorDataset(np.arange(32.0).reshape(32, 1), labels)
        loader = DataLoader(dataset, batch_size=32, shuffle=True, rng=RandomState(1))
        _, batch_labels = next(iter(loader))
        assert not np.array_equal(batch_labels, labels)
        assert sorted(batch_labels.tolist()) == labels.tolist()

    def test_len_without_drop_last(self):
        dataset = TensorDataset(np.zeros((9, 1)), np.zeros(9))
        assert len(DataLoader(dataset, batch_size=4)) == 3

    def test_invalid_batch_size(self):
        dataset = TensorDataset(np.zeros((4, 1)), np.zeros(4))
        with pytest.raises(ValueError):
            DataLoader(dataset, batch_size=0)


class TestSyntheticDataset:
    def test_shapes_and_range(self):
        dataset = SyntheticImageDataset(32, seed=0)
        image, label = dataset[0]
        assert image.shape == (3, 32, 32)
        assert 0.0 <= image.min() and image.max() <= 1.0
        assert 0 <= label < 10

    def test_deterministic_given_seed(self):
        a = SyntheticImageDataset(16, seed=5)
        b = SyntheticImageDataset(16, seed=5)
        assert np.allclose(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a = SyntheticImageDataset(16, seed=5)
        b = SyntheticImageDataset(16, seed=6)
        assert not np.allclose(a.inputs, b.inputs)

    def test_all_classes_present_in_large_sample(self):
        dataset = SyntheticImageDataset(400, seed=1)
        assert set(np.unique(dataset.labels)) == set(range(10))

    def test_custom_config(self):
        config = SyntheticImageConfig(num_classes=4, image_size=16, noise_level=0.05)
        dataset = SyntheticImageDataset(20, config=config, seed=0)
        assert dataset.inputs.shape == (20, 3, 16, 16)
        assert dataset.labels.max() < 4

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SyntheticImageConfig(num_classes=1)
        with pytest.raises(ValueError):
            SyntheticImageConfig(image_size=4)

    def test_make_synthetic_cifar_splits_disjoint_content(self):
        train, test = make_synthetic_cifar(num_train=32, num_test=16, seed=3)
        assert len(train) == 32 and len(test) == 16
        assert not np.allclose(train.inputs[:16], test.inputs)

    @pytest.mark.parametrize(
        "config, num_train, num_test, seed, digest",
        [
            # The fast profile's train/test pair, then the smoke profile's.
            (
                SyntheticImageConfig(image_size=16), 1536, 512, 2022,
                "bcc17790f3eb2d92b080372a93ee3f45d7118e3c1111f6bdf2418cca75e7f92c",
            ),
            (
                SyntheticImageConfig(image_size=8), 256, 128, 2022,
                "0e30b9527407d6545bf9e0a2e65542108c75c0d59ab80c56d648de9e2b8c0aca",
            ),
            (
                SyntheticImageConfig(), 96, 32, 0,
                "634ff0fc8f3b72dbcf825729bfbedb5bcedb16aa4b55c1676d4b1f1943814fe1",
            ),
            (
                SyntheticImageConfig(
                    num_classes=4, image_size=12, noise_level=0.3,
                    texture_strength=0.5, jitter=1,
                ),
                64, 16, 7,
                "4004904ef8c030471dcb7311e27f78a48387c85e27e101f72244bc27c2e0ee63",
            ),
            # A size that is not a multiple of 4 crops the upsampled texture.
            (
                SyntheticImageConfig(image_size=9, jitter=0), 80, 20, 3,
                "4cbd699b98ad9f9febd87c2cc5263c018b5ab77b6ef210c31514a125d6b1c0f6",
            ),
        ],
        ids=["fast", "smoke", "default", "custom", "odd_size"],
    )
    def test_generated_bytes_are_pinned(self, config, num_train, num_test, seed, digest):
        """Every image and label is bit-identical to the recorded datasets.

        Pre-trained checkpoints, cached results and benchmark accuracies all
        depend on these exact bytes, so a faster renderer must reproduce
        them.  The digests were recorded with numpy 2.4's PCG64 streams.
        """
        hasher = hashlib.sha256()
        for dataset in make_synthetic_cifar(num_train, num_test, config=config, seed=seed):
            assert dataset.inputs.dtype == np.float64
            hasher.update(dataset.inputs.tobytes())
            hasher.update(dataset.labels.tobytes())
        assert hasher.hexdigest() == digest

    def test_classes_are_separable_by_statistics(self):
        """Mean colour of at least some class pairs must differ noticeably —
        otherwise the classification task would be unlearnable."""
        config = SyntheticImageConfig(image_size=16, noise_level=0.05)
        dataset = SyntheticImageDataset(300, config=config, seed=0)
        means = []
        for cls in range(10):
            mask = dataset.labels == cls
            means.append(dataset.inputs[mask].mean(axis=(0, 2, 3)))
        means = np.stack(means)
        pair_distances = np.linalg.norm(means[:, None, :] - means[None, :, :], axis=-1)
        assert pair_distances[np.triu_indices(10, k=1)].max() > 0.1


class TestTransforms:
    def test_normalize(self):
        transform = Normalize(mean=[0.5, 0.5, 0.5], std=[0.5, 0.5, 0.5])
        image = np.full((3, 4, 4), 1.0)
        assert np.allclose(transform(image), 1.0)

    def test_normalize_rejects_zero_std(self):
        with pytest.raises(ValueError):
            Normalize(mean=[0.0], std=[0.0])

    def test_to_float_scaling(self):
        image = np.full((3, 2, 2), 255, dtype=np.uint8)
        assert np.allclose(ToFloat(scale=True)(image), 1.0)

    def test_horizontal_flip(self):
        transform = RandomHorizontalFlip(p=1.0, rng=RandomState(0))
        image = np.arange(12.0).reshape(1, 3, 4)
        flipped = transform(image)
        assert np.allclose(flipped[0, 0], [3, 2, 1, 0])

    def test_horizontal_flip_never(self):
        transform = RandomHorizontalFlip(p=0.0, rng=RandomState(0))
        image = np.arange(12.0).reshape(1, 3, 4)
        assert np.allclose(transform(image), image)

    def test_random_crop_preserves_shape(self):
        transform = RandomCrop(padding=2, rng=RandomState(0))
        image = np.ones((3, 8, 8))
        assert transform(image).shape == (3, 8, 8)

    def test_compose(self):
        transform = Compose([ToFloat(), Normalize([0.0] * 3, [2.0] * 3)])
        image = np.full((3, 2, 2), 4.0)
        assert np.allclose(transform(image), 2.0)


class TestSplits:
    def test_train_val_split_sizes(self):
        dataset = TensorDataset(np.zeros((100, 2)), np.zeros(100))
        train, val = train_val_split(dataset, val_fraction=0.2, rng=RandomState(0))
        assert len(train) == 80 and len(val) == 20

    def test_split_disjoint(self):
        dataset = TensorDataset(np.arange(50.0).reshape(50, 1), np.arange(50))
        train, val = train_val_split(dataset, val_fraction=0.3, rng=RandomState(0))
        train_values = {train[i][0][0] for i in range(len(train))}
        val_values = {val[i][0][0] for i in range(len(val))}
        assert train_values.isdisjoint(val_values)

    def test_invalid_fraction(self):
        dataset = TensorDataset(np.zeros((10, 1)), np.zeros(10))
        with pytest.raises(ValueError):
            train_val_split(dataset, val_fraction=1.5)
