"""Batch normalisation layers.

Batch normalisation is central to the paper's Pulse Length Approximation:
BN widens the activation distribution so that, after the bounded Tanh
non-linearity, deep-layer activations saturate towards -1/+1 — the property
PLA exploits when it rounds pulse counts towards the extremes.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, is_grad_enabled
from repro.tensor.dtype import resolve_dtype


class _BatchNormBase(Module):
    """Shared implementation for 1-D and 2-D batch normalisation."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(init.ones((num_features,)), name="bn_weight")
        self.bias = Parameter(init.zeros((num_features,)), name="bn_bias")
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def _reduce_axes(self, x: Tensor):
        raise NotImplementedError

    def _param_shape(self, x: Tensor):
        raise NotImplementedError

    def forward(self, x: Tensor) -> Tensor:
        axes = self._reduce_axes(x)
        shape = self._param_shape(x)
        if self.training:
            mean = x.mean(axis=axes, keepdims=True)
            var = x.var(axis=axes, keepdims=True)
            # Update running statistics with the batch statistics.
            batch_mean = mean.data.reshape(self.num_features)
            batch_var = var.data.reshape(self.num_features)
            self.running_mean[:] = (
                (1.0 - self.momentum) * self.running_mean + self.momentum * batch_mean
            )
            self.running_var[:] = (
                (1.0 - self.momentum) * self.running_var + self.momentum * batch_var
            )
        else:
            mean = Tensor(self.running_mean.reshape(shape))
            var = Tensor(self.running_var.reshape(shape))
            learns_affine = is_grad_enabled() and (
                self.weight.requires_grad or self.bias.requires_grad
            )
            if not learns_affine:
                return self._eval_frozen(x, mean, var, shape)
        normalised = (x - mean) / ((var + self.eps).sqrt())
        scale = self.weight.reshape(*shape)
        shift = self.bias.reshape(*shape)
        return normalised * scale + shift

    def _eval_frozen(self, x: Tensor, mean: Tensor, var: Tensor, shape) -> Tensor:
        """The eval expression of :meth:`forward` when no affine parameter
        learns (inference, or GBO's frozen network).

        Its four full-size operations run in the same order into one output
        buffer.  When ``x`` requires grad, the backward is the graph's chain
        for ``x`` alone, ``grad * weight`` then ``/ denominator``, with no
        gradient built for the statistics or the frozen parameters.
        """
        denominator = (var + self.eps).sqrt().data
        weight = self.weight.reshape(*shape).data
        out = np.subtract(x.data, mean.data, out=np.empty(x.shape, dtype=resolve_dtype()))
        np.divide(out, denominator, out=out)
        np.multiply(out, weight, out=out)
        np.add(out, self.bias.reshape(*shape).data, out=out)
        result = x._make_output(out, (x,))

        def _backward(grad: np.ndarray) -> None:
            x_grad = np.multiply(grad, weight)
            np.divide(x_grad, denominator, out=x_grad)
            x._accumulate(x_grad)

        result._backward_fn = _backward
        return result

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.num_features}, eps={self.eps}, "
            f"momentum={self.momentum})"
        )


class BatchNorm1d(_BatchNormBase):
    """Batch normalisation over a ``(batch, features)`` tensor."""

    def _reduce_axes(self, x: Tensor):
        return 0

    def _param_shape(self, x: Tensor):
        return (1, self.num_features)


class BatchNorm2d(_BatchNormBase):
    """Batch normalisation over a ``(batch, channels, H, W)`` tensor."""

    def _reduce_axes(self, x: Tensor):
        return (0, 2, 3)

    def _param_shape(self, x: Tensor):
        return (1, self.num_features, 1, 1)
