"""Tests for the Module/Parameter registration, mode and state-dict machinery."""

import numpy as np
import pytest

from repro.nn import BatchNorm1d, Linear, Module
from repro.nn.module import Parameter
from repro.tensor import Tensor, no_grad


class _TwoLayer(Module):
    def __init__(self):
        super().__init__()
        self.first = Linear(4, 8)
        self.second = Linear(8, 2)
        self.register_buffer("counter", np.zeros(1))

    def forward(self, x):
        return self.second(self.first(x).tanh())


class TestRegistration:
    def test_parameters_are_collected_recursively(self):
        model = _TwoLayer()
        names = dict(model.named_parameters())
        assert "first.weight" in names and "second.bias" in names
        assert len(model.parameters()) == 4

    def test_buffers_are_collected(self):
        model = _TwoLayer()
        assert "counter" in dict(model.named_buffers())

    def test_modules_iteration(self):
        model = _TwoLayer()
        classes = [type(m).__name__ for m in model.modules()]
        assert classes.count("Linear") == 2
        assert len(list(model.children())) == 2

    def test_named_modules_paths(self):
        model = _TwoLayer()
        names = [name for name, _ in model.named_modules()]
        assert "" in names and "first" in names and "second" in names

    def test_num_parameters(self):
        model = Linear(3, 5)
        assert model.num_parameters() == 3 * 5 + 5

    def test_parameter_created_under_no_grad_still_trainable(self):
        with no_grad():
            param = Parameter(np.zeros(3))
        assert param.requires_grad


class TestModes:
    def test_train_eval_propagates(self):
        model = _TwoLayer()
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_requires_grad_toggle_and_freeze(self):
        model = _TwoLayer()
        model.freeze()
        assert all(not p.requires_grad for p in model.parameters())
        model.requires_grad_(True)
        assert all(p.requires_grad for p in model.parameters())

    def test_zero_grad(self):
        model = Linear(3, 2)
        out = model(Tensor(np.ones((1, 3)))).sum()
        out.backward()
        assert model.weight.grad is not None
        model.zero_grad()
        assert model.weight.grad is None

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(Tensor([1.0]))


class TestStateDict:
    def test_roundtrip(self):
        source = _TwoLayer()
        target = _TwoLayer()
        target.load_state_dict(source.state_dict())
        for (name_a, param_a), (_, param_b) in zip(
            source.named_parameters(), target.named_parameters()
        ):
            assert np.allclose(param_a.data, param_b.data), name_a

    def test_state_dict_is_a_copy(self):
        model = Linear(2, 2)
        state = model.state_dict()
        state["weight"][:] = 99.0
        assert not np.allclose(model.weight.data, 99.0)

    def test_shape_mismatch_raises(self):
        model = Linear(2, 2)
        bad_state = {name: np.zeros((5, 5)) for name in model.state_dict()}
        with pytest.raises(ValueError):
            model.load_state_dict(bad_state)

    def test_strict_missing_key_raises(self):
        model = _TwoLayer()
        state = model.state_dict()
        state.pop("first.weight")
        with pytest.raises(KeyError):
            model.load_state_dict(state, strict=True)

    def test_non_strict_allows_missing(self):
        model = _TwoLayer()
        state = model.state_dict()
        state.pop("first.weight")
        model.load_state_dict(state, strict=False)

    def test_buffers_roundtrip_through_state_dict(self):
        model = BatchNorm1d(4)
        model.running_mean[:] = 3.0
        clone = BatchNorm1d(4)
        clone.load_state_dict(model.state_dict())
        assert np.allclose(clone.running_mean, 3.0)
