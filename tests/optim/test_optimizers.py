"""Tests for SGD, Adam and the learning-rate schedulers."""

import numpy as np
import pytest

from repro.nn import Linear
from repro.optim import SGD, Adam, MilestoneFractionLR, MultiStepLR
from repro.tensor import Tensor
from repro.tensor.random import RandomState


def _quadratic_loss(param):
    """Simple convex objective: ||p - 3||^2."""
    return ((param - 3.0) ** 2).sum()


class TestSGD:
    def test_converges_on_quadratic(self):
        param = Tensor(np.zeros(4), requires_grad=True)
        optimizer = SGD([param], lr=0.1)
        for _ in range(200):
            optimizer.zero_grad()
            _quadratic_loss(param).backward()
            optimizer.step()
        assert np.allclose(param.data, 3.0, atol=1e-3)

    def test_momentum_accelerates(self):
        def run(momentum):
            param = Tensor(np.zeros(1), requires_grad=True)
            optimizer = SGD([param], lr=0.01, momentum=momentum)
            for _ in range(50):
                optimizer.zero_grad()
                _quadratic_loss(param).backward()
                optimizer.step()
            return abs(param.data[0] - 3.0)

        assert run(0.9) < run(0.0)

    def test_weight_decay_shrinks_weights(self):
        param = Tensor(np.ones(3) * 5.0, requires_grad=True)
        optimizer = SGD([param], lr=0.1, weight_decay=0.5)
        optimizer.zero_grad()
        (param.sum() * 0.0).backward()  # zero task gradient
        optimizer.step()
        assert np.all(param.data < 5.0)

    def test_skips_parameters_without_grad(self):
        param = Tensor(np.ones(2), requires_grad=True)
        optimizer = SGD([param], lr=0.1)
        optimizer.step()  # no backward called; should be a no-op
        assert np.allclose(param.data, 1.0)

    def test_validation(self):
        param = Tensor(np.ones(1), requires_grad=True)
        with pytest.raises(ValueError):
            SGD([], lr=0.1)
        with pytest.raises(ValueError):
            SGD([param], lr=-1.0)
        with pytest.raises(ValueError):
            SGD([param], lr=0.1, momentum=-0.5)

    def test_momentum_and_weight_decay_follow_the_heavy_ball_recurrence(self):
        """``v <- m*v + (g + wd*p)``, ``p <- p - lr*v``, step by step."""
        param = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        optimizer = SGD([param], lr=0.1, momentum=0.9, weight_decay=0.01)
        expected, velocity = param.data.copy(), np.zeros(2)
        for _ in range(4):
            optimizer.zero_grad()
            _quadratic_loss(param).backward()
            grad = 2.0 * (expected - 3.0) + 0.01 * expected
            velocity = 0.9 * velocity + grad
            expected = expected - 0.1 * velocity
            optimizer.step()
            assert np.allclose(param.data, expected)

    def test_zero_grad_clears_every_parameter(self):
        params = [Tensor(np.ones(2), requires_grad=True) for _ in range(3)]
        optimizer = SGD(params, lr=0.1)
        sum(((p * 2.0).sum() for p in params), Tensor(0.0)).backward()
        assert all(p.grad is not None for p in params)
        optimizer.zero_grad()
        assert all(p.grad is None or not np.any(p.grad) for p in params)

    def test_trains_a_linear_layer(self):
        rng = RandomState(0)
        layer = Linear(3, 1, rng=rng)
        optimizer = SGD(layer.parameters(), lr=0.05)
        x = rng.normal(size=(64, 3))
        true_w = np.array([[1.0, -2.0, 0.5]])
        y = x @ true_w.T
        for _ in range(300):
            optimizer.zero_grad()
            prediction = layer(Tensor(x))
            loss = ((prediction - Tensor(y)) ** 2).mean()
            loss.backward()
            optimizer.step()
        assert np.allclose(layer.weight.data, true_w, atol=0.05)


class TestAdam:
    def test_converges_on_quadratic(self):
        param = Tensor(np.zeros(4), requires_grad=True)
        optimizer = Adam([param], lr=0.1)
        for _ in range(300):
            optimizer.zero_grad()
            _quadratic_loss(param).backward()
            optimizer.step()
        assert np.allclose(param.data, 3.0, atol=1e-2)

    def test_first_step_is_lr_sized(self):
        param = Tensor(np.zeros(1), requires_grad=True)
        optimizer = Adam([param], lr=0.5)
        optimizer.zero_grad()
        (param * 10.0).sum().backward()
        optimizer.step()
        # Bias correction makes the very first Adam step ~= lr in magnitude.
        assert abs(param.data[0] + 0.5) < 1e-6

    def test_weight_decay(self):
        param = Tensor(np.ones(3) * 2.0, requires_grad=True)
        optimizer = Adam([param], lr=0.01, weight_decay=1.0)
        optimizer.zero_grad()
        (param.sum() * 0.0).backward()
        optimizer.step()
        assert np.all(param.data < 2.0)

    def test_matches_the_bias_corrected_update_over_several_steps(self):
        param = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
        optimizer = Adam([param], lr=0.05, betas=(0.8, 0.95), eps=1e-8)
        expected, m, v = param.data.copy(), np.zeros(3), np.zeros(3)
        for step in range(1, 6):
            optimizer.zero_grad()
            _quadratic_loss(param).backward()
            grad = 2.0 * (expected - 3.0)
            m = 0.8 * m + 0.2 * grad
            v = 0.95 * v + 0.05 * grad * grad
            m_hat, v_hat = m / (1 - 0.8 ** step), v / (1 - 0.95 ** step)
            expected = expected - 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
            optimizer.step()
            assert np.allclose(param.data, expected)

    def test_invalid_betas(self):
        param = Tensor(np.ones(1), requires_grad=True)
        with pytest.raises(ValueError):
            Adam([param], lr=0.1, betas=(1.5, 0.9))


class TestSchedulers:
    def _optimizer(self, lr=1.0):
        return SGD([Tensor(np.ones(1), requires_grad=True)], lr=lr)

    def test_multi_step_lr(self):
        optimizer = self._optimizer()
        scheduler = MultiStepLR(optimizer, milestones=[2, 4], gamma=0.5)
        lrs = []
        for _ in range(5):
            scheduler.step()
            lrs.append(optimizer.lr)
        assert lrs == pytest.approx([1.0, 0.5, 0.5, 0.25, 0.25])

    def test_milestone_fraction_lr_matches_paper_recipe(self):
        optimizer = self._optimizer(lr=1e-3)
        scheduler = MilestoneFractionLR(optimizer, total_epochs=60)
        assert scheduler.milestones == [30, 42, 54]
        for _ in range(60):
            scheduler.step()
        assert optimizer.lr == pytest.approx(1e-6)

    def test_multi_step_lr_sorts_its_milestones(self):
        optimizer = self._optimizer()
        scheduler = MultiStepLR(optimizer, milestones=[3, 1], gamma=0.1)
        assert scheduler.milestones == [1, 3]
        lrs = []
        for _ in range(3):
            scheduler.step()
            lrs.append(optimizer.lr)
        assert lrs == pytest.approx([0.1, 0.1, 0.01])

    def test_milestone_fraction_lr_keeps_every_milestone_past_epoch_zero(self):
        """A budget too short for the fractions still decays, from epoch 1 on,
        never before the first epoch."""
        scheduler = MilestoneFractionLR(self._optimizer(), total_epochs=2)
        assert scheduler.milestones == [1, 1, 2]
        assert scheduler.fractions == (0.5, 0.7, 0.9)
        scheduler.step()
        assert scheduler.current_lr == pytest.approx(1e-2)

    def test_current_lr_property(self):
        optimizer = self._optimizer()
        scheduler = MultiStepLR(optimizer, milestones=[1], gamma=0.1)
        scheduler.step()
        assert scheduler.current_lr == optimizer.lr == pytest.approx(0.1)
