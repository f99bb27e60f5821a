"""Tests for the trainer, evaluation helpers, metrics and checkpoints."""

import numpy as np
import pytest

from repro.core import PulseSchedule
from repro.data import DataLoader, TensorDataset
from repro.models import CrossbarMLP
from repro.nn import Linear, Module
from repro.sim import SimConfig
from repro.optim import SGD, MultiStepLR
from repro.tensor import Tensor
from repro.tensor.random import RandomState
from repro.training import (
    AverageMeter,
    PretrainConfig,
    Trainer,
    TrainingConfig,
    accuracy_from_logits,
    evaluate_accuracy,
    load_checkpoint,
    noisy_accuracy,
    pretrain_model,
    save_checkpoint,
)
from repro.training.evaluate import evaluate_multi


class _TanhMLP(Module):
    """Two linear layers around a tanh: the smallest non-linear classifier."""

    def __init__(self, features, hidden, classes):
        super().__init__()
        self.first = Linear(features, hidden, rng=RandomState(1))
        self.second = Linear(hidden, classes, rng=RandomState(2))

    def forward(self, x):
        return self.second(self.first(x).tanh())


@pytest.fixture
def rng():
    return RandomState(4)


@pytest.fixture
def linearly_separable(rng):
    """Simple 3-class linearly separable problem."""
    num, features, classes = 240, 12, 3
    weights = rng.normal(size=(classes, features))
    inputs = rng.normal(size=(num, features))
    labels = (inputs @ weights.T).argmax(axis=1)
    dataset = TensorDataset(inputs, labels)
    train_loader = DataLoader(dataset, batch_size=32, shuffle=True, rng=RandomState(0))
    eval_loader = DataLoader(dataset, batch_size=64)
    return train_loader, eval_loader, features, classes


class TestMetrics:
    def test_accuracy_from_logits(self):
        logits = np.array([[2.0, 1.0], [0.0, 3.0], [1.0, 0.0], [0.0, 1.0]])
        targets = np.array([0, 1, 1, 1])
        assert accuracy_from_logits(logits, targets) == pytest.approx(75.0)

    def test_accuracy_accepts_tensor(self):
        logits = Tensor(np.array([[1.0, 0.0]]))
        assert accuracy_from_logits(logits, np.array([0])) == pytest.approx(100.0)

    def test_average_meter(self):
        meter = AverageMeter("loss")
        meter.update(2.0, weight=1)
        meter.update(4.0, weight=3)
        assert meter.average == pytest.approx(3.5)
        meter.reset()
        assert meter.average == 0.0


class TestTrainer:
    def test_learns_separable_problem(self, linearly_separable):
        train_loader, eval_loader, features, classes = linearly_separable
        model = _TanhMLP(features, 32, classes)
        optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
        trainer = Trainer(model, optimizer, config=TrainingConfig(epochs=10))
        history = trainer.fit(train_loader, val_loader=eval_loader)
        assert history[-1]["train_accuracy"] > 85.0
        assert history[-1]["val_accuracy"] > 85.0
        assert len(history) == 10

    def test_scheduler_changes_lr(self, linearly_separable):
        train_loader, _, features, classes = linearly_separable
        model = Linear(features, classes, rng=RandomState(1))
        optimizer = SGD(model.parameters(), lr=1.0)
        scheduler = MultiStepLR(optimizer, milestones=[1, 2], gamma=0.1)
        trainer = Trainer(model, optimizer, scheduler=scheduler, config=TrainingConfig(epochs=2))
        trainer.fit(train_loader)
        assert optimizer.lr == pytest.approx(0.01)

    def test_invalid_epochs(self):
        with pytest.raises(ValueError):
            TrainingConfig(epochs=0)


class TestEvaluation:
    def test_evaluate_accuracy_is_a_percentage(self, linearly_separable, rng):
        train_loader, eval_loader, features, classes = linearly_separable
        model = Linear(features, classes, rng=RandomState(1))
        accuracy = evaluate_accuracy(model, eval_loader)
        assert 0.0 <= accuracy <= 100.0

    def test_evaluation_restores_training_mode(self, linearly_separable):
        train_loader, eval_loader, features, classes = linearly_separable
        model = Linear(features, classes, rng=RandomState(1))
        model.train()
        evaluate_accuracy(model, eval_loader)
        assert model.training

    @pytest.mark.parametrize("function", ["evaluate_accuracy", "evaluate_multi"])
    def test_evaluation_restores_training_mode_when_the_loop_raises(
        self, tiny_loaders, function
    ):
        _, test_loader = tiny_loaders
        model = CrossbarMLP(3 * 8 * 8, hidden_sizes=(16, 16), rng=RandomState(1))
        model.train()

        def failing_loader():
            yield next(iter(test_loader))
            raise RuntimeError("loader failed")

        evaluate = {
            "evaluate_accuracy": evaluate_accuracy,
            "evaluate_multi": lambda model, loader: evaluate_multi(
                model,
                loader,
                [SimConfig(mode="noisy", noise_sigma=s) for s in (1.0, 2.0)],
                rngs=[RandomState(10), RandomState(11)],
            ),
        }[function]
        with pytest.raises(RuntimeError, match="loader failed"):
            evaluate(model, failing_loader())
        assert model.training

    def test_noisy_accuracy_restores_model_state(self, tiny_loaders):
        """The evaluation runs in a Session: the model's previous simulation
        state (clean mode, default pulses) is restored afterwards."""
        _, test_loader = tiny_loaders
        model = CrossbarMLP(3 * 8 * 8, hidden_sizes=(16, 16), rng=RandomState(1))
        before = model.current_schedule().as_list()
        schedule = PulseSchedule([12, 16])
        accuracy = noisy_accuracy(
            model, test_loader, SimConfig(mode="noisy", noise_sigma=2.0, pulses=schedule), num_repeats=2
        )
        assert 0.0 <= accuracy <= 100.0
        assert model.current_schedule().as_list() == before
        assert all(layer.mode == "clean" for layer in model.encoded_layers())
        assert all(layer.noise_sigma == 0.0 for layer in model.encoded_layers())

    def test_noisy_accuracy_invalid_repeats(self, tiny_loaders):
        _, test_loader = tiny_loaders
        model = CrossbarMLP(3 * 8 * 8, hidden_sizes=(16,), rng=RandomState(1))
        with pytest.raises(ValueError):
            noisy_accuracy(model, test_loader, SimConfig(noise_sigma=1.0), num_repeats=0)


class TestPretrainRecipe:
    def test_pretrain_improves_accuracy(self, tiny_loaders):
        train_loader, test_loader = tiny_loaders
        model = CrossbarMLP(3 * 8 * 8, hidden_sizes=(32, 32), rng=RandomState(1))
        before = evaluate_accuracy(model, test_loader)
        pretrain_model(model, train_loader, config=PretrainConfig(epochs=5, learning_rate=1e-2))
        after = evaluate_accuracy(model, test_loader)
        assert after > before

    def test_pretrain_config_validation(self):
        with pytest.raises(ValueError):
            PretrainConfig(epochs=0)


class TestCheckpoint:
    def test_checkpoint_roundtrip(self, tmp_path):
        model = CrossbarMLP(12, hidden_sizes=(8,), rng=RandomState(1))
        path = str(tmp_path / "model.npz")
        save_checkpoint(path, model, metadata={"note": "test"})
        clone = CrossbarMLP(12, hidden_sizes=(8,), rng=RandomState(99))
        load_checkpoint(path, clone)
        assert np.allclose(clone.enc0.weight.data, model.enc0.weight.data)
        assert np.allclose(clone.stem.weight.data, model.stem.weight.data)
