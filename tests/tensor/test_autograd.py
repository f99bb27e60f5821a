"""Gradient correctness tests for the autograd engine.

Every differentiable operation is checked against central finite differences
via :func:`check_gradients` (``tests/gradcheck.py``).
"""

import numpy as np
import pytest

from gradcheck import check_gradients
from repro.tensor import Tensor, no_grad, is_grad_enabled
from repro.tensor.random import RandomState


@pytest.fixture
def rng():
    return RandomState(42)


def _leaf(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


class TestBasicGradients:
    def test_add_mul(self, rng):
        a, b = _leaf(rng, 3, 4), _leaf(rng, 3, 4)
        check_gradients(lambda: ((a + b) * (a * 2.0)).sum(), [a, b])

    def test_sub_div(self, rng):
        a, b = _leaf(rng, 5), _leaf(rng, 5)
        b.data = np.abs(b.data) + 1.0
        check_gradients(lambda: ((a - b) / b).sum(), [a, b])

    def test_pow_sqrt(self, rng):
        a = _leaf(rng, 4)
        a.data = np.abs(a.data) + 0.5
        check_gradients(lambda: ((a ** 3) + a.sqrt()).sum(), [a])

    def test_exp_log(self, rng):
        a = _leaf(rng, 6)
        a.data = np.abs(a.data) + 0.5
        check_gradients(lambda: (a.exp() + a.log()).sum(), [a])

    def test_tanh(self, rng):
        a = _leaf(rng, 3, 3)
        check_gradients(lambda: a.tanh().sum(), [a])

    def test_clip_interior(self, rng):
        a = Tensor(np.array([-0.5, 0.2, 0.7]), requires_grad=True)
        check_gradients(lambda: (a.clip(-1.0, 1.0) * 2.0).sum(), [a])

    def test_neg(self, rng):
        a = _leaf(rng, 4)
        check_gradients(lambda: (-a).sum(), [a])

    @pytest.mark.parametrize(
        "reflected",
        [
            lambda a: 2.5 + a,
            lambda a: 2.5 - a,
            lambda a: 2.5 * a,
            lambda a: 2.5 / a,
        ],
        ids=["radd", "rsub", "rmul", "rtruediv"],
    )
    def test_reflected_operators(self, rng, reflected):
        a = _leaf(rng, 3, 2)
        a.data = np.abs(a.data) + 0.5
        check_gradients(lambda: (reflected(a) * a).sum(), [a])

    def test_clip_passes_no_gradient_outside_the_range(self):
        a = Tensor(np.array([-2.0, -0.5, 0.3, 1.5]), requires_grad=True)
        (a.clip(-1.0, 1.0) * 3.0).sum().backward()
        assert np.array_equal(a.grad, [0.0, 3.0, 3.0, 0.0])


class TestMatmulGradients:
    def test_matmul_2d(self, rng):
        a, b = _leaf(rng, 3, 4), _leaf(rng, 4, 2)
        check_gradients(lambda: a.matmul(b).sum(), [a, b])

    def test_matmul_chained(self, rng):
        a, b, c = _leaf(rng, 2, 3), _leaf(rng, 3, 3), _leaf(rng, 3, 2)
        check_gradients(lambda: (a @ b @ c).tanh().sum(), [a, b, c])


class TestReductionGradients:
    def test_sum_axis(self, rng):
        a = _leaf(rng, 3, 4)
        check_gradients(lambda: (a.sum(axis=1) ** 2).sum(), [a])

    def test_mean_axes(self, rng):
        a = _leaf(rng, 2, 3, 4)
        check_gradients(lambda: (a.mean(axis=(0, 2)) ** 2).sum(), [a])

    def test_var(self, rng):
        a = _leaf(rng, 4, 5)
        check_gradients(lambda: a.var(axis=0).sum(), [a])

    def test_max(self, rng):
        a = _leaf(rng, 4, 5)
        check_gradients(lambda: a.max(axis=1).sum(), [a])

    def test_max_keepdims_and_whole_tensor(self, rng):
        a = _leaf(rng, 3, 4)
        check_gradients(lambda: (a.max(axis=0, keepdims=True) * a).sum(), [a])
        check_gradients(lambda: a.max() * 2.0, [a])

    def test_max_splits_the_gradient_between_ties(self):
        a = Tensor(np.array([[1.0, 3.0, 3.0], [2.0, 0.0, 2.0]]), requires_grad=True)
        a.max(axis=1).sum().backward()
        assert np.array_equal(a.grad, [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        a.zero_grad()
        a.max().backward()
        assert np.array_equal(a.grad, [[0.0, 0.5, 0.5], [0.0, 0.0, 0.0]])


class TestShapeGradients:
    def test_reshape_transpose(self, rng):
        a = _leaf(rng, 2, 6)
        check_gradients(lambda: (a.reshape(3, 4).transpose() * 2.0).sum(), [a])

    def test_getitem(self, rng):
        a = _leaf(rng, 4, 4)
        check_gradients(lambda: (a[1:3, :2] ** 2).sum(), [a])

    def test_getitem_repeated_index_accumulates(self):
        a = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        a[np.array([0, 2, 0, 0])].sum().backward()
        assert np.array_equal(a.grad, [3.0, 0.0, 1.0])

    def test_flatten_from_a_start_dim_and_T(self, rng):
        a = _leaf(rng, 2, 3, 4)
        assert a.flatten(1).shape == (2, 12)
        check_gradients(lambda: (a.flatten(1).T ** 2).sum(), [a])

class TestBroadcastGradients:
    def test_broadcast_add(self, rng):
        a = _leaf(rng, 3, 4)
        b = _leaf(rng, 4)
        check_gradients(lambda: (a + b).sum(), [a, b])

    def test_broadcast_mul_column(self, rng):
        a = _leaf(rng, 3, 4)
        b = _leaf(rng, 3, 1)
        check_gradients(lambda: (a * b).tanh().sum(), [a, b])

    def test_broadcast_scalar_tensor(self, rng):
        a = _leaf(rng, 1)
        b = _leaf(rng, 5, 2)
        check_gradients(lambda: (a * b).sum(), [a, b])


class TestGraphMechanics:
    def test_gradient_accumulates_across_uses(self):
        a = Tensor([2.0], requires_grad=True)
        out = a * a + a * 3.0
        out.backward()
        # d/da (a^2 + 3a) = 2a + 3 = 7
        assert a.grad[0] == pytest.approx(7.0)

    def test_backward_requires_scalar(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (a * 2).backward()

    def test_backward_with_explicit_gradient(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (a * 2).backward(np.array([1.0, 1.0]))
        assert np.allclose(a.grad, [2.0, 2.0])

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).backward()
        a.zero_grad()
        assert a.grad is None

    def test_no_grad_blocks_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 2
        assert not out.requires_grad
        assert out._backward_fn is None

    def test_backward_releases_interior_nodes_and_keeps_leaf_grads(self):
        a = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        frozen = Tensor([0.5, 0.5, 0.5])
        b = a * 2.0  # two children below
        c = b * b + b * frozen
        loss = c.sum()
        loss.backward()
        # d/da sum(4a^2 + a) = 8a + 1, exact in binary.
        np.testing.assert_array_equal(a.grad, [9.0, -15.0, 25.0])
        assert frozen.grad is None
        np.testing.assert_array_equal(loss.grad, 1.0)
        for node in (b, c):
            assert node.grad is None
        for node in (b, c, loss):
            assert node._backward_fn is None and node._parents == ()

    def test_backward_release_leaves_conv_network_grads_bit_equal(self):
        # A 1/16-width VGG9 in noisy mode at 12 pulses, training BatchNorm:
        # the input's and every parameter's gradient, by SHA-256 digest,
        # as recorded before backward released interior nodes.
        import hashlib

        from repro.models import VGG9, VGGConfig
        from repro.sim import SimConfig, apply_config
        from repro.tensor import functional as F

        model = VGG9(
            VGGConfig(num_classes=4, image_size=16, width_multiplier=1 / 16), rng=RandomState(41)
        )
        apply_config(model, SimConfig(mode="noisy", noise_sigma=1.0, pulses=12))
        for index, layer in enumerate(model.encoded_layers()):
            layer.noise_rng = RandomState(43 + index)
        x = Tensor(np.tanh(RandomState(47).normal(size=(4, 3, 16, 16))), requires_grad=True)
        loss = F.cross_entropy(model.train()(x), np.array([0, 1, 2, 3]))
        loss.backward()
        grads = [x.grad] + [p.grad for p in model.parameters()]
        digest = hashlib.sha256(
            b"".join(np.ascontiguousarray(g).tobytes() for g in grads)
        ).hexdigest()
        assert digest == "df09334c3db03dee92620ae7ffb07f4a4356e6a93b15a9bde84f4b66577f3ce6"

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_with_data_is_straight_through(self):
        a = Tensor([0.3, -0.7], requires_grad=True)
        quantised = a.with_data(np.sign(a.data))
        assert np.allclose(quantised.data, [1.0, -1.0])
        (quantised * 3.0).sum().backward()
        assert np.allclose(a.grad, [3.0, 3.0])

    def test_diamond_graph(self):
        a = Tensor([1.5], requires_grad=True)
        left = a * 2.0
        right = a * 3.0
        out = (left * right).sum()  # 6 a^2 -> d/da = 12 a = 18
        out.backward()
        assert a.grad[0] == pytest.approx(18.0)

    def test_deep_chain(self, rng):
        a = Tensor([0.5], requires_grad=True)
        out = a
        for _ in range(50):
            out = out * 1.01 + 0.001
        out.sum().backward()
        assert a.grad is not None
        assert np.isfinite(a.grad).all()


class TestFrozenOperands:
    """add/sub/mul/div build no gradient for an operand that does not
    require one, and give the operand that does the same bits as before."""

    # The gradient each op gave its requiring operand before frozen operands
    # were skipped, as (left requires, right requires) -> expression.
    EXPECTED = {
        "add": (lambda g, a, b: g, lambda g, a, b: g),
        "sub": (lambda g, a, b: g, lambda g, a, b: -g),
        "mul": (lambda g, a, b: g * b, lambda g, a, b: g * a),
        "div": (lambda g, a, b: g / b, lambda g, a, b: -g * a / (b ** 2)),
    }
    OPS = {
        "add": lambda a, b: a + b,
        "sub": lambda a, b: a - b,
        "mul": lambda a, b: a * b,
        "div": lambda a, b: a / b,
    }

    @staticmethod
    def _reduce(grad, shape):
        extra = grad.ndim - len(shape)
        if extra > 0:
            grad = grad.sum(axis=tuple(range(extra)))
        axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
        return (grad.sum(axis=axes, keepdims=True) if axes else grad).reshape(shape)

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    @pytest.mark.parametrize("requiring", [0, 1])
    @pytest.mark.parametrize("shapes", [((3, 4), (3, 4)), ((2, 3, 4), (1, 3, 1)), ((3, 4), ())])
    def test_only_the_requiring_operand_gets_a_gradient(self, op, requiring, shapes):
        rng = np.random.default_rng(0)
        data = [rng.uniform(0.5, 2.0, size=shape) for shape in shapes]
        if requiring == 1:
            data.reverse()
        left = Tensor(data[0], requires_grad=requiring == 0)
        right = Tensor(data[1], requires_grad=requiring == 1)
        out = self.OPS[op](left, right)
        upstream = rng.normal(size=out.shape)
        out.backward(upstream)
        learner, frozen = (left, right) if requiring == 0 else (right, left)
        assert frozen.grad is None
        expected = self.EXPECTED[op][requiring](upstream, left.data, right.data)
        expected = self._reduce(expected, learner.shape)
        assert learner.grad.tobytes() == np.ascontiguousarray(expected).tobytes()

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    def test_no_gradient_is_computed_for_a_frozen_operand(self, op, monkeypatch):
        import repro.tensor.tensor as tensor_module

        reduced = []
        original = tensor_module._unbroadcast

        def counting(grad, shape):
            reduced.append(shape)
            return original(grad, shape)

        monkeypatch.setattr(tensor_module, "_unbroadcast", counting)
        learner = Tensor(np.full((2, 3), 1.5), requires_grad=True)
        frozen = Tensor(np.full((1, 3), 2.0))
        self.OPS[op](learner, frozen).sum().backward()
        self.OPS[op](frozen, learner).sum().backward()
        assert reduced == [(2, 3), (2, 3)]
        assert frozen.grad is None
