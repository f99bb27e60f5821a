"""Tests for the VGG9, CrossbarMLP and CrossbarLeNet architectures."""

import numpy as np
import pytest

from repro.core import EncodedConv2d, EncodedLinear, PulseSchedule
from repro.models import VGG9, CrossbarLeNet, CrossbarMLP, VGGConfig
from repro.sim import SimConfig, apply_config
from repro.tensor import Tensor
from repro.tensor.random import RandomState


@pytest.fixture
def rng():
    return RandomState(8)


@pytest.fixture
def small_vgg():
    config = VGGConfig(width_multiplier=0.0625, image_size=16)
    return VGG9(config, rng=RandomState(2))


class TestVGG9:
    def test_has_seven_encoded_layers(self, small_vgg):
        assert small_vgg.num_encoded_layers() == 7
        layers = small_vgg.encoded_layers()
        assert sum(isinstance(l, EncodedConv2d) for l in layers) == 5
        assert sum(isinstance(l, EncodedLinear) for l in layers) == 2
        assert small_vgg.encoded_layer_names() == [
            "conv2", "conv3", "conv4", "conv5", "conv6", "fc1", "fc2",
        ]

    def test_forward_shape(self, small_vgg, rng):
        out = small_vgg(Tensor(rng.uniform(0, 1, size=(2, 3, 16, 16))))
        assert out.shape == (2, 10)

    def test_full_width_channel_sizes(self):
        config = VGGConfig(width_multiplier=1.0, image_size=32)
        model = VGG9(config, rng=RandomState(0))
        assert model.conv2.out_channels == 128
        assert model.conv6.out_channels == 512
        assert model.fc2.out_features == 1024

    def test_width_multiplier_scales_channels(self, small_vgg):
        assert small_vgg.conv2.out_channels == 8
        assert small_vgg.conv6.out_channels == 32

    def test_invalid_image_size(self):
        with pytest.raises(ValueError):
            VGGConfig(image_size=30)

    def test_schedule_config_and_current_schedule(self, small_vgg):
        schedule = PulseSchedule([10, 10, 8, 10, 10, 4, 6])
        apply_config(small_vgg, SimConfig(pulses=schedule))
        assert small_vgg.current_schedule().as_list() == schedule.as_list()

    def test_schedule_length_mismatch(self, small_vgg):
        with pytest.raises(ValueError):
            apply_config(small_vgg, SimConfig(pulses=(8, 8)))

    def test_mode_and_noise_propagate(self, small_vgg):
        apply_config(small_vgg, SimConfig(mode="noisy", noise_sigma=3.0))
        assert all(l.mode == "noisy" and l.noise_sigma == 3.0 for l in small_vgg.encoded_layers())

    def test_noisy_forward_differs_from_clean(self, small_vgg, rng):
        x = Tensor(rng.uniform(0, 1, size=(2, 3, 16, 16)))
        small_vgg.eval()
        clean = small_vgg(x).data
        apply_config(small_vgg, SimConfig(mode="noisy", noise_sigma=5.0))
        noisy = small_vgg(x).data
        assert not np.allclose(clean, noisy)

    def test_stem_and_classifier_not_encoded(self, small_vgg):
        encoded = set(id(l) for l in small_vgg.encoded_layers())
        assert id(small_vgg.conv1) not in encoded
        assert id(small_vgg.classifier) not in encoded

    def test_iter_encoded(self, small_vgg):
        assert len(list(small_vgg.iter_encoded())) == 7

    def test_repr(self, small_vgg):
        assert "VGG9" in repr(small_vgg)


class TestCrossbarMLP:
    def test_forward_flattens_images(self, rng):
        model = CrossbarMLP(3 * 8 * 8, hidden_sizes=(16,), rng=RandomState(1))
        out = model(Tensor(rng.uniform(0, 1, size=(4, 3, 8, 8))))
        assert out.shape == (4, 10)

    def test_encoded_layer_count_matches_hidden_sizes(self):
        model = CrossbarMLP(10, hidden_sizes=(8, 8, 8), rng=RandomState(1))
        assert model.num_encoded_layers() == 3

    def test_requires_hidden_layers(self):
        with pytest.raises(ValueError):
            CrossbarMLP(10, hidden_sizes=())

    def test_schedule_roundtrip(self):
        model = CrossbarMLP(10, hidden_sizes=(8, 8), rng=RandomState(1))
        apply_config(model, SimConfig(pulses=(10, 16)))
        assert model.current_schedule().as_list() == [10, 16]

    def test_schedule_length_mismatch(self):
        model = CrossbarMLP(10, hidden_sizes=(8, 8), rng=RandomState(1))
        with pytest.raises(ValueError):
            apply_config(model, SimConfig(pulses=(8,)))


class TestCrossbarLeNet:
    def test_forward_shape(self, rng):
        model = CrossbarLeNet(image_size=8, base_channels=4, rng=RandomState(1))
        out = model(Tensor(rng.uniform(0, 1, size=(2, 3, 8, 8))))
        assert out.shape == (2, 10)

    def test_three_encoded_layers(self):
        model = CrossbarLeNet(image_size=8, base_channels=4, rng=RandomState(1))
        assert model.num_encoded_layers() == 3
        assert model.encoded_layer_names() == ["conv2", "conv3", "fc1"]

    def test_invalid_image_size(self):
        with pytest.raises(ValueError):
            CrossbarLeNet(image_size=10)

    def test_noise_propagation(self):
        model = CrossbarLeNet(image_size=8, base_channels=4, rng=RandomState(1))
        apply_config(model, SimConfig(noise_sigma=2.5, sigma_relative_to_fan_in=True))
        assert all(l.noise_sigma == 2.5 and l.sigma_relative_to_fan_in for l in model.encoded_layers())

    def test_schedule_mismatch(self):
        model = CrossbarLeNet(image_size=8, base_channels=4, rng=RandomState(1))
        with pytest.raises(ValueError):
            apply_config(model, SimConfig(pulses=(8,) * 5))
