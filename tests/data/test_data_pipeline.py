"""Tests for datasets, loaders and the synthetic task."""

import hashlib

import numpy as np
import pytest

from repro.data import (
    DataLoader,
    Dataset,
    Subset,
    SyntheticImageConfig,
    SyntheticImageDataset,
    TensorDataset,
    make_synthetic_cifar,
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

    def test_base_dataset_is_abstract(self):
        dataset = Dataset()
        with pytest.raises(NotImplementedError):
            len(dataset)
        with pytest.raises(NotImplementedError):
            dataset[0]

    def test_num_classes_of_an_empty_dataset(self):
        assert TensorDataset(np.zeros((0, 2)), np.zeros(0)).num_classes == 0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            TensorDataset(np.zeros((3, 2)), np.zeros(4))

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

    def test_equal_seeds_shuffle_alike_and_each_epoch_reshuffles(self):
        dataset = TensorDataset(np.arange(16.0).reshape(16, 1), np.arange(16))
        first = DataLoader(dataset, batch_size=16, shuffle=True, rng=RandomState(4))
        second = DataLoader(dataset, batch_size=16, shuffle=True, rng=RandomState(4))
        epoch_one = next(iter(first))[1]
        assert np.array_equal(epoch_one, next(iter(second))[1])
        assert not np.array_equal(epoch_one, next(iter(first))[1])

    def test_iterates_a_subset_in_its_index_order(self):
        dataset = TensorDataset(np.arange(10.0).reshape(10, 1), np.arange(10))
        loader = DataLoader(Subset(dataset, [8, 2, 5]), batch_size=2)
        batches = [labels.tolist() for _, labels in loader]
        assert batches == [[8, 2], [5]]

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

    def test_images_render_on_first_access(self, monkeypatch):
        import repro.data.synthetic as synthetic

        calls = []
        generate = synthetic._generate
        monkeypatch.setattr(
            synthetic, "_generate", lambda *args: calls.append(args) or generate(*args)
        )
        dataset = SyntheticImageDataset(8, seed=5)
        assert len(dataset) == 8 and calls == []
        image, label = dataset[3]
        assert len(calls) == 1
        np.testing.assert_array_equal(image, dataset.inputs[3])
        assert label == dataset.labels[3] and len(calls) == 1

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
