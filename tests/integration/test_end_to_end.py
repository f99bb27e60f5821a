"""Integration tests: the full paper pipeline at miniature scale.

These tests exercise pre-training -> noisy evaluation -> PLA -> GBO -> NIA on
a small crossbar model and verify the qualitative claims of the paper rather
than any specific accuracy number:

1. crossbar noise hurts accuracy;
2. longer pulse encodings recover part of the loss (Section II-B);
3. GBO produces a valid heterogeneous schedule without touching weights;
4. NIA fine-tuning recovers accuracy at the baseline latency (Table II);
5. checkpoints round-trip the whole experiment state.
"""

import numpy as np
import pytest

pytestmark = pytest.mark.slow  # full pipeline at miniature scale; -m "not slow" skips

from repro.core import (
    GBOConfig,
    GBOTrainer,
    NIAConfig,
    NIATrainer,
    PulseScalingSpace,
    PulseSchedule,
)
from repro.data import DataLoader, SyntheticImageConfig, SyntheticImageDataset
from repro.models import CrossbarLeNet
from repro.sim import SimConfig, apply_config
from repro.tensor.random import RandomState
from repro.training import (
    PretrainConfig,
    evaluate_accuracy,
    noisy_accuracy,
    pretrain_model,
)
from repro.utils.seed import seed_everything


def _noisy(sigma, schedule):
    """Noisy inference at ``sigma`` with a per-layer pulse ``schedule``."""
    return SimConfig(mode="noisy", noise_sigma=sigma, pulses=schedule)


@pytest.fixture(scope="module")
def pipeline():
    """Pre-train a small LeNet on a small synthetic task (module-scoped)."""
    seed_everything(7)
    config = SyntheticImageConfig(image_size=8, noise_level=0.08)
    train_set = SyntheticImageDataset(320, config=config, seed=1)
    test_set = SyntheticImageDataset(160, config=config, seed=2)
    train_loader = DataLoader(train_set, batch_size=32, shuffle=True, rng=RandomState(0))
    test_loader = DataLoader(test_set, batch_size=64)
    model = CrossbarLeNet(image_size=8, base_channels=8, rng=RandomState(3))
    pretrain_model(
        model, train_loader, config=PretrainConfig(epochs=8, learning_rate=2e-2)
    )
    clean_accuracy = evaluate_accuracy(model, test_loader)
    return model, train_loader, test_loader, clean_accuracy


class TestPretraining:
    def test_model_learns_the_task(self, pipeline):
        _, _, _, clean_accuracy = pipeline
        assert clean_accuracy > 35.0  # 10 classes -> chance is 10%

    def test_weights_are_binarised_in_forward(self, pipeline):
        model, _, _, _ = pipeline
        for layer in model.encoded_layers():
            assert set(np.unique(layer.binary_weight().data)).issubset({-1.0, 1.0})


class TestNoiseRobustness:
    SIGMA = 8.0

    def test_noise_degrades_accuracy(self, pipeline):
        model, _, test_loader, clean_accuracy = pipeline
        schedule = PulseSchedule.uniform(model.num_encoded_layers(), 8)
        noisy = noisy_accuracy(model, test_loader, _noisy(self.SIGMA, schedule), num_repeats=3)
        assert noisy < clean_accuracy

    def test_more_pulses_recover_accuracy(self, pipeline):
        """Key claim of Section II-B: noise is mitigated by longer encodings."""
        model, _, test_loader, _ = pipeline
        layers = model.num_encoded_layers()
        acc_short = noisy_accuracy(
            model, test_loader, _noisy(self.SIGMA, PulseSchedule.uniform(layers, 4)), num_repeats=3
        )
        acc_long = noisy_accuracy(
            model, test_loader, _noisy(self.SIGMA, PulseSchedule.uniform(layers, 16)), num_repeats=3
        )
        assert acc_long > acc_short

    def test_clean_mode_unaffected_by_noise_setting(self, pipeline):
        model, _, test_loader, clean_accuracy = pipeline
        apply_config(model, SimConfig(noise_sigma=self.SIGMA))
        assert evaluate_accuracy(model, test_loader) == pytest.approx(clean_accuracy)


class TestGBOIntegration:
    def test_gbo_schedule_on_pretrained_model(self, pipeline):
        model, train_loader, test_loader, _ = pipeline
        sigma = 8.0
        weights_before = {name: p.data.copy() for name, p in model.named_parameters()}
        apply_config(model, SimConfig(noise_sigma=sigma))
        trainer = GBOTrainer(
            model,
            GBOConfig(space=PulseScalingSpace(), gamma=1e-3, learning_rate=5e-2, epochs=2),
        )
        result = trainer.train(train_loader)
        model.requires_grad_(True)

        # Weights untouched by GBO.
        for name, param in model.named_parameters():
            if name.endswith("gbo_logits"):
                continue
            assert np.allclose(param.data, weights_before[name]), name

        # Schedule is valid and applied to the model.
        assert len(result.schedule) == model.num_encoded_layers()
        assert model.current_schedule().as_list() == result.schedule.as_list()

        # Noisy accuracy with the GBO schedule beats the worst-case 4-pulse schedule.
        gbo_acc = noisy_accuracy(model, test_loader, _noisy(sigma, result.schedule), num_repeats=3)
        short_acc = noisy_accuracy(
            model, test_loader,
            _noisy(sigma, PulseSchedule.uniform(model.num_encoded_layers(), 4)), num_repeats=3,
        )
        assert gbo_acc >= short_acc


class TestNIAIntegration:
    def test_nia_recovers_accuracy(self, pipeline):
        model, train_loader, test_loader, _ = pipeline
        sigma = 10.0
        state_before = model.state_dict()
        schedule = PulseSchedule.uniform(model.num_encoded_layers(), 8)
        baseline = noisy_accuracy(model, test_loader, _noisy(sigma, schedule), num_repeats=3)
        NIATrainer(
            model, NIAConfig(sigma=sigma, epochs=3, learning_rate=5e-3, pulses=8)
        ).train(train_loader)
        adapted = noisy_accuracy(model, test_loader, _noisy(sigma, schedule), num_repeats=3)
        assert adapted > baseline
        # Restore so other tests see the pre-trained weights.
        model.load_state_dict(state_before)


class TestCheckpointIntegration:
    def test_full_model_roundtrip(self, pipeline, tmp_path):
        from repro.training import load_checkpoint, save_checkpoint

        model, _, test_loader, clean_accuracy = pipeline
        apply_config(model, SimConfig())
        path = str(tmp_path / "lenet.npz")
        save_checkpoint(path, model)
        clone = CrossbarLeNet(image_size=8, base_channels=8, rng=RandomState(99))
        # strict=False: the saved model may carry extra GBO logits from the
        # GBO integration test, which a freshly built model does not have.
        load_checkpoint(path, clone, strict=False)
        assert evaluate_accuracy(clone, test_loader) == pytest.approx(clean_accuracy)
