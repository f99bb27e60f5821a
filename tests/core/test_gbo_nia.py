"""Tests for the GBO trainer, the NIA baseline and the sensitivity analysis."""

import numpy as np
import pytest

from repro.core import (
    GBOConfig,
    GBOTrainer,
    NIAConfig,
    NIATrainer,
    PulseScalingSpace,
    PulseSchedule,
    layer_noise_sensitivity,
)
from repro.core.gbo import apply_schedule
from repro.data import DataLoader, TensorDataset
from repro.models import CrossbarMLP
from repro.sim import SimConfig, apply_config
from repro.tensor.random import RandomState
from repro.training import evaluate_accuracy


@pytest.fixture
def rng():
    return RandomState(3)


@pytest.fixture
def toy_problem(rng):
    """A tiny learnable 4-class problem plus an untrained crossbar MLP."""
    num_samples, features, classes = 160, 24, 4
    centroids = rng.normal(scale=2.0, size=(classes, features))
    labels = rng.randint(0, classes, size=num_samples)
    inputs = centroids[labels] + rng.normal(scale=0.3, size=(num_samples, features))
    inputs = np.tanh(inputs)
    dataset = TensorDataset(inputs, labels)
    loader = DataLoader(dataset, batch_size=32, shuffle=True, rng=RandomState(0))
    eval_loader = DataLoader(dataset, batch_size=64, shuffle=False)
    model = CrossbarMLP(features, hidden_sizes=(32, 32), num_classes=classes, rng=RandomState(5))
    return model, loader, eval_loader


class TestGBOConfig:
    def test_defaults_follow_paper(self):
        config = GBOConfig()
        assert config.epochs == 10
        assert config.space.pulse_counts == [4, 6, 8, 10, 12, 14, 16]

    def test_validation(self):
        with pytest.raises(ValueError):
            GBOConfig(gamma=-1.0)
        with pytest.raises(ValueError):
            GBOConfig(epochs=0)
        with pytest.raises(ValueError):
            GBOConfig(learning_rate=0.0)

    def test_log_every_validation(self):
        with pytest.raises(ValueError, match="log_every"):
            GBOConfig(log_every=-1)
        # 0 (logging disabled) and positive cadences are both valid.
        assert GBOConfig(log_every=0).log_every == 0
        assert GBOConfig(log_every=25).log_every == 25


class TestGBOTrainer:
    def test_requires_encoded_layers(self):
        class NoEncoded:
            def encoded_layers(self):
                return []

        with pytest.raises(ValueError):
            GBOTrainer(NoEncoded())

    def test_training_returns_valid_schedule_and_freezes_weights(self, toy_problem):
        model, loader, _ = toy_problem
        apply_config(model, SimConfig(noise_sigma=3.0))
        config = GBOConfig(epochs=1, learning_rate=0.05, gamma=1e-3)
        trainer = GBOTrainer(model, config)
        weights_before = model.enc0.weight.data.copy()
        result = trainer.train(loader)
        # Weights must not move (only the logits are trained).
        assert np.allclose(model.enc0.weight.data, weights_before)
        assert len(result.schedule) == model.num_encoded_layers()
        assert all(p in config.space.pulse_counts for p in result.schedule)
        assert len(result.history) >= 1
        assert result.average_pulses == result.schedule.average_pulses

    def test_history_records_both_loss_terms(self, toy_problem):
        model, loader, _ = toy_problem
        apply_config(model, SimConfig(noise_sigma=2.0))
        result = GBOTrainer(model, GBOConfig(epochs=1, learning_rate=0.05)).train(loader)
        record = result.history[0]
        assert {"loss", "cross_entropy", "expected_latency"} <= set(record)
        assert record["expected_latency"] > 0

    def test_large_gamma_prefers_short_encodings(self, toy_problem):
        """With a huge latency weight the latency term dominates and every
        layer should pick (close to) the shortest pulse option."""
        model, loader, _ = toy_problem
        apply_config(model, SimConfig(noise_sigma=1.0))
        result = GBOTrainer(model, GBOConfig(epochs=3, learning_rate=0.3, gamma=10.0)).train(loader)
        assert result.schedule.average_pulses <= 6.0

    def test_model_left_in_noisy_mode_with_schedule(self, toy_problem):
        model, loader, _ = toy_problem
        apply_config(model, SimConfig(noise_sigma=2.0))
        result = GBOTrainer(model, GBOConfig(epochs=1, learning_rate=0.05)).train(loader)
        assert model.current_schedule().as_list() == result.schedule.as_list()
        assert all(layer.mode == "noisy" for layer in model.encoded_layers())

    def test_alphas_and_logits_exported_per_layer(self, toy_problem):
        model, loader, _ = toy_problem
        apply_config(model, SimConfig(noise_sigma=2.0))
        result = GBOTrainer(model, GBOConfig(epochs=1, learning_rate=0.05)).train(loader)
        assert len(result.logits) == model.num_encoded_layers()
        for alphas in result.alphas:
            assert alphas.sum() == pytest.approx(1.0)


class TestApplySchedule:
    def test_applies_to_all_layers(self, toy_problem):
        model, _, _ = toy_problem
        schedule = PulseSchedule([10, 14])
        apply_schedule(model, schedule)
        assert model.current_schedule().as_list() == [10, 14]

    def test_length_mismatch(self, toy_problem):
        model, _, _ = toy_problem
        with pytest.raises(ValueError):
            apply_schedule(model, PulseSchedule([8, 8, 8]))


class TestNIA:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            NIAConfig(sigma=-1.0)
        with pytest.raises(ValueError):
            NIAConfig(sigma=1.0, epochs=0)
        with pytest.raises(ValueError):
            NIAConfig(sigma=1.0, optimizer="bogus")

    def test_training_updates_weights_and_history(self, toy_problem):
        model, loader, _ = toy_problem
        before = model.enc0.weight.data.copy()
        history = NIATrainer(model, NIAConfig(sigma=2.0, epochs=1, learning_rate=1e-2)).train(loader)
        assert not np.allclose(model.enc0.weight.data, before)
        assert len(history) == len(loader)
        assert model.training is False  # left in eval mode

    def test_nia_improves_noisy_accuracy_over_untrained(self, toy_problem):
        model, loader, eval_loader = toy_problem
        sigma = 3.0
        apply_config(model, SimConfig(mode="noisy", noise_sigma=sigma))
        before = evaluate_accuracy(model, eval_loader)
        NIATrainer(model, NIAConfig(sigma=sigma, epochs=5, learning_rate=1e-2)).train(loader)
        after = evaluate_accuracy(model, eval_loader)
        assert after > before

    def test_sgd_option(self, toy_problem):
        model, loader, _ = toy_problem
        history = NIATrainer(
            model, NIAConfig(sigma=1.0, epochs=1, learning_rate=1e-2, optimizer="sgd")
        ).train(loader)
        assert history


class TestNoiseSensitivity:
    def test_returns_entry_per_layer_plus_clean(self, toy_problem):
        model, _, eval_loader = toy_problem
        results = layer_noise_sensitivity(model, eval_loader, sigma=2.0, include_clean=True)
        assert len(results) == model.num_encoded_layers() + 1
        assert results[0].layer_index == -1
        assert all(0.0 <= r.accuracy <= 100.0 for r in results)

    def test_layers_restored_to_clean_after_analysis(self, toy_problem):
        model, _, eval_loader = toy_problem
        layer_noise_sensitivity(model, eval_loader, sigma=2.0, include_clean=False)
        assert all(layer.mode == "clean" for layer in model.encoded_layers())

    def test_noise_injection_hurts_at_high_sigma(self, toy_problem, rng):
        """With enormous noise in one layer the accuracy must drop below the
        clean accuracy for a trained model."""
        model, loader, eval_loader = toy_problem
        # quick supervised fit so there is accuracy to lose
        NIATrainer(model, NIAConfig(sigma=0.0, epochs=5, learning_rate=1e-2)).train(loader)
        apply_config(model, SimConfig())
        clean = evaluate_accuracy(model, eval_loader)
        results = layer_noise_sensitivity(model, eval_loader, sigma=50.0, include_clean=False)
        assert min(r.accuracy for r in results) < clean

    def test_requires_encoded_layers(self, toy_problem):
        class NoEncoded:
            def encoded_layers(self):
                return []

        _, _, eval_loader = toy_problem
        with pytest.raises(ValueError):
            layer_noise_sensitivity(NoEncoded(), eval_loader, sigma=1.0)
