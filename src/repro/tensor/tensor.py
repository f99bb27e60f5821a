"""Core :class:`Tensor` class implementing reverse-mode autodiff.

A ``Tensor`` wraps a ``numpy.ndarray`` and records the operations applied to
it in a directed acyclic graph.  Calling :meth:`Tensor.backward` on a scalar
result propagates gradients to every ancestor created with
``requires_grad=True``.

Only the operations needed by the reproduction are implemented, but the set
is complete enough to express convolutional networks with batch
normalisation, pooling, quantisation with straight-through estimators, and
the GBO objective of the paper.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.context import current_context
from repro.tensor.dtype import resolve_dtype

Number = Union[int, float]
ArrayLike = Union[Number, Sequence, np.ndarray, "Tensor"]


#: The calling thread/task's :func:`no_grad` override of its context's grad
#: flag; ``None`` (no ``no_grad`` block open) defers to the context.
_GRAD_OVERRIDE: "ContextVar[Optional[bool]]" = ContextVar("repro_grad_override", default=None)


def is_grad_enabled() -> bool:
    """Return ``True`` if gradient recording is currently enabled.

    Inside a :func:`no_grad` block of the calling thread/task it is
    ``False``; otherwise it is the current
    :class:`repro.context.ExecutionContext`'s ``grad_enabled`` default, so
    disabling gradients in one worker's context never affects another's.
    """
    override = _GRAD_OVERRIDE.get()
    return current_context().grad_enabled if override is None else override


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction.

    Inside a ``with no_grad():`` block all operations behave as pure numpy
    computations; the results have ``requires_grad=False`` and no backward
    functions are recorded.  Used throughout evaluation and inference paths.
    Scoped to the calling thread/task: the override is a
    :class:`~contextvars.ContextVar`, so another thread on the same
    execution context keeps recording its graph.
    """
    token = _GRAD_OVERRIDE.set(False)
    try:
        yield
    finally:
        _GRAD_OVERRIDE.reset(token)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape`` after broadcasting.

    Numpy broadcasting expands singleton or missing dimensions during the
    forward pass; the corresponding backward pass must therefore sum the
    gradient over every expanded axis.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    # ``dtype=None`` follows the process compute-dtype policy (float64 by
    # default, float32 opt-in) — see :mod:`repro.tensor.dtype`.
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=resolve_dtype(dtype))


class Tensor:
    """A numpy-backed tensor with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Anything convertible to a ``numpy.ndarray`` of floats.
    requires_grad:
        If ``True`` the tensor participates in gradient computation and its
        ``grad`` attribute is populated by :meth:`backward`.
    name:
        Optional label used in debugging and error messages.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_backward_fn_store", "_parents")

    def __init__(self, data: ArrayLike, requires_grad: bool = False, name: str = ""):
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.name = name
        self._backward_fn_store: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()

    @property
    def _backward_fn(self) -> Optional[Callable[[np.ndarray], None]]:
        """Backward function of the op that produced this tensor (if any)."""
        return self._backward_fn_store

    @_backward_fn.setter
    def _backward_fn(self, fn: Optional[Callable[[np.ndarray], None]]) -> None:
        # Operations assign their backward closure unconditionally; drop it
        # when the output does not participate in the graph (e.g. inside a
        # ``no_grad()`` block) so no gradients can leak through.
        if self.requires_grad:
            self._backward_fn_store = fn

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    @property
    def dtype(self):
        """Numpy dtype of the underlying array."""
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        """Transpose of a 2-D tensor (alias for :meth:`transpose`)."""
        return self.transpose()

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data.item())

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (not a copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy_(self, other: "Tensor") -> "Tensor":
        """In-place copy of ``other``'s data (no graph recording)."""
        np.copyto(self.data, other.data if isinstance(other, Tensor) else np.asarray(other))
        return self

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to ``None``."""
        self.grad = None

    def __repr__(self) -> str:
        grad_part = ", requires_grad=True" if self.requires_grad else ""
        name_part = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{grad_part}{name_part})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Graph utilities
    # ------------------------------------------------------------------
    def _make_output(self, data: np.ndarray, parents: Tuple["Tensor", ...]) -> "Tensor":
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = parents
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            # Adopt the incoming array without copying. This means .grad may
            # alias an upstream gradient or even another tensor's .grad (an
            # add passes the identical array to both parents), so .grad must
            # be treated as read-only everywhere: accumulate by rebinding
            # (`self.grad = self.grad + grad`, as below), never by in-place
            # ops like `grad *= scale` or `grad.fill(0)` — those would
            # silently corrupt a sibling's gradient.
            self.grad = np.asarray(grad, dtype=self.data.dtype)
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode accumulation from this tensor.

        The pass consumes the graph: each node that propagates drops its
        backward function and parents, and every node but this one its
        ``.grad``, so only leaves (parameters, tensors built with
        ``requires_grad=True``) and this tensor keep a gradient.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.  May
            be omitted only for scalar tensors, in which case it defaults
            to 1.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient is only valid for "
                    f"scalar tensors, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = _as_array(grad)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).copy()

        ordered = self._topological_order()
        grads = {id(self): np.array(grad, dtype=self.data.dtype)}
        self._accumulate(grads[id(self)])
        for node in ordered:
            node_grad = grads.pop(id(node), None)
            if node_grad is None or node._backward_fn is None:
                continue
            node._backward_fn(node_grad)
            # After calling the backward fn, the parents have accumulated into
            # their .grad; pull the newly-contributed piece for propagation.
            for parent in node._parents:
                if parent.requires_grad and parent.grad is not None:
                    grads[id(parent)] = parent.grad
            # The node has propagated: release its gradient, closure and
            # parents so each interior array is freed as soon as the pass
            # is done with it.  Leaves have no backward function and keep
            # their .grad; so does the root.
            node._backward_fn_store = None
            node._parents = ()
            if node is not self:
                node.grad = None

    def _topological_order(self) -> List["Tensor"]:
        order: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        order.reverse()
        return order

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    # The binary ops (like ``matmul``) compute a parent's gradient only when
    # that parent requires it: a frozen operand (a drawn noise tensor, a
    # read of frozen weights, BatchNorm statistics) would only have its
    # full-size gradient built and then dropped by ``_accumulate``.
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out = self._make_output(self.data + other_t.data, (self, other_t))

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other_t.requires_grad:
                other_t._accumulate(_unbroadcast(grad, other_t.shape))

        out._backward_fn = _backward
        return out

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        out = self._make_output(-self.data, (self,))

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        out._backward_fn = _backward
        return out

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out = self._make_output(self.data - other_t.data, (self, other_t))

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other_t.requires_grad:
                other_t._accumulate(_unbroadcast(-grad, other_t.shape))

        out._backward_fn = _backward
        return out

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out = self._make_output(self.data * other_t.data, (self, other_t))

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other_t.data, self.shape))
            if other_t.requires_grad:
                other_t._accumulate(_unbroadcast(grad * self.data, other_t.shape))

        out._backward_fn = _backward
        return out

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out = self._make_output(self.data / other_t.data, (self, other_t))

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other_t.data, self.shape))
            if other_t.requires_grad:
                other_t._accumulate(
                    _unbroadcast(-grad * self.data / (other_t.data ** 2), other_t.shape)
                )

        out._backward_fn = _backward
        return out

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other).__truediv__(self)

    def __pow__(self, exponent: Number) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out = self._make_output(self.data ** exponent, (self,))

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        out._backward_fn = _backward
        return out

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return self.matmul(other)

    # Comparisons yield plain boolean numpy arrays (no gradients).
    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > _as_array(other)

    def __ge__(self, other: ArrayLike) -> np.ndarray:
        return self.data >= _as_array(other)

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < _as_array(other)

    def __le__(self, other: ArrayLike) -> np.ndarray:
        return self.data <= _as_array(other)

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        """Matrix product supporting 2-D inputs and batched left operands."""
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out = self._make_output(self.data @ other_t.data, (self, other_t))

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                grad_self = grad @ np.swapaxes(other_t.data, -1, -2)
                self._accumulate(_unbroadcast(grad_self, self.shape))
            if other_t.requires_grad:
                grad_other = np.swapaxes(self.data, -1, -2) @ grad
                other_t._accumulate(_unbroadcast(grad_other, other_t.shape))

        out._backward_fn = _backward
        return out

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        """Elementwise exponential."""
        value = np.exp(self.data)
        out = self._make_output(value, (self,))

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad * value)

        out._backward_fn = _backward
        return out

    def log(self) -> "Tensor":
        """Elementwise natural logarithm."""
        out = self._make_output(np.log(self.data), (self,))

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        out._backward_fn = _backward
        return out

    def sqrt(self) -> "Tensor":
        """Elementwise square root."""
        value = np.sqrt(self.data)
        out = self._make_output(value, (self,))

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad * 0.5 / value)

        out._backward_fn = _backward
        return out

    def tanh(self) -> "Tensor":
        """Elementwise hyperbolic tangent."""
        value = np.tanh(self.data)
        out = self._make_output(value, (self,))

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - value ** 2))

        out._backward_fn = _backward
        return out

    def clip(self, low: Number, high: Number) -> "Tensor":
        """Clamp values into ``[low, high]``; gradient is zero outside."""
        out = self._make_output(np.clip(self.data, low, high), (self,))
        if out.requires_grad:
            mask = (self.data >= low) & (self.data <= high)

            def _backward(grad: np.ndarray) -> None:
                self._accumulate(grad * mask)

            out._backward_fn = _backward
        return out

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        """Sum of elements over the given axis (or all elements)."""
        value = self.data.sum(axis=axis, keepdims=keepdims)
        out = self._make_output(value, (self,))

        def _backward(grad: np.ndarray) -> None:
            expanded = grad
            if axis is not None and not keepdims:
                expanded = np.expand_dims(grad, axis=axis)
            self._accumulate(np.broadcast_to(expanded, self.shape).copy())

        out._backward_fn = _backward
        return out

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean over the given axis (or all elements)."""
        value = self.data.mean(axis=axis, keepdims=keepdims)
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.shape[a] for a in axes]))
        out = self._make_output(value, (self,))

        def _backward(grad: np.ndarray) -> None:
            expanded = grad
            if axis is not None and not keepdims:
                expanded = np.expand_dims(grad, axis=axis)
            self._accumulate(np.broadcast_to(expanded, self.shape).copy() / count)

        out._backward_fn = _backward
        return out

    def var(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        """Population variance over the given axis, built from primitives."""
        mean = self.mean(axis=axis, keepdims=True)
        centered = self - mean
        squared = centered * centered
        return squared.mean(axis=axis, keepdims=keepdims)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        """Maximum over an axis; gradient flows to (the first) argmax."""
        value = self.data.max(axis=axis, keepdims=keepdims)
        out = self._make_output(value, (self,))

        def _backward(grad: np.ndarray) -> None:
            if axis is None:
                mask = (self.data == self.data.max()).astype(self.data.dtype)
                mask /= mask.sum()
                self._accumulate(grad * mask)
                return
            expanded_value = self.data.max(axis=axis, keepdims=True)
            mask = (self.data == expanded_value).astype(self.data.dtype)
            mask /= mask.sum(axis=axis, keepdims=True)
            expanded = grad if keepdims else np.expand_dims(grad, axis=axis)
            self._accumulate(mask * expanded)

        out._backward_fn = _backward
        return out

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        """Return a reshaped view of the tensor."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original_shape = self.shape
        out = self._make_output(self.data.reshape(shape), (self,))

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original_shape))

        out._backward_fn = _backward
        return out

    def flatten(self, start_dim: int = 0) -> "Tensor":
        """Flatten dimensions from ``start_dim`` onwards."""
        new_shape = self.shape[:start_dim] + (-1,)
        return self.reshape(*new_shape)

    def transpose(self, *axes: int) -> "Tensor":
        """Permute axes (default: reverse all axes)."""
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        axes_tuple = axes if axes else tuple(reversed(range(self.ndim)))
        out = self._make_output(self.data.transpose(axes_tuple), (self,))
        inverse = np.argsort(axes_tuple)

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        out._backward_fn = _backward
        return out

    def __getitem__(self, index) -> "Tensor":
        out = self._make_output(self.data[index], (self,))

        def _backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        out._backward_fn = _backward
        return out

    # ------------------------------------------------------------------
    # Straight-through helpers used by the quantisation substrate
    # ------------------------------------------------------------------
    def with_data(self, new_data: np.ndarray) -> "Tensor":
        """Return a tensor whose forward value is ``new_data`` but whose
        backward pass behaves as the identity on ``self``.

        This is the straight-through estimator (STE) primitive used by the
        binary-weight and multi-level activation quantisers: the forward pass
        sees the quantised values while gradients flow through unchanged.
        """
        new_data = np.asarray(new_data, dtype=self.data.dtype)
        if new_data.shape != self.shape:
            raise ValueError(
                f"with_data expects matching shapes, got {new_data.shape} vs {self.shape}"
            )
        out = self._make_output(new_data, (self,))

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad)

        out._backward_fn = _backward
        return out
