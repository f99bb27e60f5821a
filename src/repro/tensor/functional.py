"""Functional operations built on :class:`~repro.tensor.Tensor` primitives.

These helpers compose the primitive differentiable operations into the
higher-level functions used by the layer library: numerically stable softmax
and log-softmax, cross-entropy, im2col/col2im for convolutions, and pooling
window extraction.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.tensor.dtype import resolve_dtype
from repro.tensor.tensor import Tensor


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    logsum = shifted.exp().sum(axis=axis, keepdims=True).log()
    return shifted - logsum


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits`` and integer class ``targets``.

    Parameters
    ----------
    logits:
        Tensor of shape ``(batch, classes)``.
    targets:
        Integer array of shape ``(batch,)`` with class indices.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError(f"cross_entropy expects 2-D logits, got shape {logits.shape}")
    if targets.ndim != 1 or targets.shape[0] != logits.shape[0]:
        raise ValueError(
            f"targets shape {targets.shape} incompatible with logits {logits.shape}"
        )
    log_probs = log_softmax(logits, axis=1)
    batch = logits.shape[0]
    picked = log_probs[np.arange(batch), targets]
    return -(picked.mean())


def one_hot(targets: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer class indices to a one-hot float matrix."""
    targets = np.asarray(targets, dtype=np.int64)
    out = np.zeros((targets.shape[0], num_classes), dtype=resolve_dtype())
    out[np.arange(targets.shape[0]), targets] = 1.0
    return out


# ---------------------------------------------------------------------------
# im2col / col2im for convolution
# ---------------------------------------------------------------------------
def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling window."""
    return (size + 2 * padding - kernel) // stride + 1


def im2col(x: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    """Rearrange image patches into columns (pure numpy, no gradient).

    Returns an array of shape ``(C*K*K, N*out_h*out_w)`` whose row index is
    ``c*K*K + ki*K + kj`` and whose column index is ``(oh*out_w + ow)*N + n``.

    Stride-1 windows (every convolution in the model zoo) take the
    :func:`col2im`-mirrored path: one transpose into ``(C, H, W, N)`` layout
    with the padding fused into the destination allocation, then ``K*K``
    near-contiguous block copies into the output's own memory order — the
    output reshape is free.  That replaces the old 6-D
    ``transpose(...).reshape`` of a sliding-window view, whose scattered
    gather dominated the conv forward (2-3x slower on VGG-block shapes).
    Strided windows (max pooling over windows that do not tile the image)
    keep the sliding-window gather, which wins there.
    Both paths copy the same elements, so they are bit-identical.
    """
    batch, channels, height, width = x.shape
    out_h = conv_output_size(height, kernel, stride, padding)
    out_w = conv_output_size(width, kernel, stride, padding)
    if stride == 1:
        if padding > 0:
            img = np.zeros(
                (channels, height + 2 * padding, width + 2 * padding, batch),
                dtype=x.dtype,
            )
            img[:, padding : padding + height, padding : padding + width, :] = (
                x.transpose(1, 2, 3, 0)
            )
        else:
            img = np.ascontiguousarray(x.transpose(1, 2, 3, 0))
        blocks = np.empty(
            (channels, kernel, kernel, out_h, out_w, batch), dtype=x.dtype
        )
        for ki in range(kernel):
            for kj in range(kernel):
                blocks[:, ki, kj] = img[:, ki : ki + out_h, kj : kj + out_w, :]
        return blocks.reshape(channels * kernel * kernel, out_h * out_w * batch)
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(x, (kernel, kernel), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]  # (N, C, out_h, out_w, K, K)
    return windows.transpose(1, 4, 5, 2, 3, 0).reshape(kernel * kernel * channels, -1)


def col2im(
    cols: np.ndarray,
    shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Inverse of :func:`im2col`, scatter-adding columns back to an image.

    Accumulates one slice-add per kernel offset (``K*K`` vectorised adds)
    rather than a single ``np.add.at`` scatter: within one ``(ki, kj)``
    offset every target index is unique, so plain ``+=`` is exact, and the
    offsets are summed sequentially.  The accumulator lives in ``(C, H, W, N)``
    layout so each offset's add is a contiguous block copy of the matching
    ``cols`` slice (batch is the fastest-varying column axis); one transpose
    back to NCHW at the end costs a single image-sized copy.  Orders of
    magnitude faster than the per-index ufunc scatter for stride-1
    convolutions.
    """
    batch, channels, height, width = shape
    padded_h, padded_w = height + 2 * padding, width + 2 * padding
    out_h = conv_output_size(height, kernel, stride, padding)
    out_w = conv_output_size(width, kernel, stride, padding)
    padded = np.zeros((channels, padded_h, padded_w, batch), dtype=cols.dtype)
    blocks = cols.reshape(channels, kernel, kernel, out_h, out_w, batch)
    for ki in range(kernel):
        for kj in range(kernel):
            padded[
                :, ki : ki + stride * out_h : stride, kj : kj + stride * out_w : stride, :
            ] += blocks[:, ki, kj]
    image = padded.transpose(3, 0, 1, 2)
    if padding > 0:
        image = image[:, :, padding:-padding, padding:-padding]
    return np.ascontiguousarray(image)


def im2col_tensor(x: Tensor, kernel: int, stride: int, padding: int) -> Tensor:
    """Differentiable im2col built on the numpy kernels above.

    The backward pass uses :func:`col2im` to scatter gradients back to the
    input image.
    """
    input_shape = x.shape
    cols = im2col(x.data, kernel, stride, padding)
    out = x._make_output(cols, (x,))

    def _backward(grad: np.ndarray) -> None:
        x._accumulate(col2im(grad, input_shape, kernel, stride, padding))

    out._backward_fn = _backward
    return out


# ---------------------------------------------------------------------------
# Pooling helpers
# ---------------------------------------------------------------------------
def max_pool2d(x: Tensor, kernel: int = 2, stride: int | None = None) -> Tensor:
    """2-D max pooling over an NCHW tensor.

    Non-overlapping windows that tile the image (``stride == kernel``
    dividing H and W: every pool in the model zoo) take
    :func:`_tiled_max_pool2d`; any other window takes
    :func:`_im2col_max_pool2d`.  Both route the gradient to the argmax
    location, split evenly between tied maxima, with the same bits.
    """
    stride = kernel if stride is None else stride
    height, width = x.shape[2:]
    if stride == kernel and height % kernel == 0 and width % kernel == 0:
        return _tiled_max_pool2d(x, kernel)
    return _im2col_max_pool2d(x, kernel, stride)


def _im2col_max_pool2d(x: Tensor, kernel: int, stride: int) -> Tensor:
    """Max pooling as :func:`im2col_tensor` followed by a differentiable max
    over the window axis (any window and stride)."""
    batch, channels, height, width = x.shape
    out_h = conv_output_size(height, kernel, stride, 0)
    out_w = conv_output_size(width, kernel, stride, 0)
    # Treat each channel independently so the max is over spatial window only.
    reshaped = x.reshape(batch * channels, 1, height, width)
    cols = im2col_tensor(reshaped, kernel, stride, 0)  # (K*K, out_h*out_w*N*C)
    pooled = cols.max(axis=0)
    # Columns are spatial-major: index = (oh*out_w + ow) * (N*C) + nc.
    out = pooled.reshape(out_h, out_w, batch, channels).transpose(2, 3, 0, 1)
    return out


def _tiled_max_pool2d(x: Tensor, kernel: int) -> Tensor:
    """Max pooling over ``kernel x kernel`` windows that tile the image.

    The output is the elementwise ``np.maximum`` of the ``K*K`` strided
    slices ``x[..., ki::K, kj::K]`` folded in ``ki*K + kj`` order, the
    order in which the im2col path reduces its window rows; no window
    matrix is built.  The backward repeats that path's arithmetic: each
    slice's mask of positions equal to the max is divided by the window's
    tie count and multiplied by the incoming gradient, then added into a
    zeroed image as ``col2im`` does, so tied maxima (saturated tanh gives
    exact +-1) split the gradient evenly and every bit matches.
    """
    data = x.data
    slices = [
        data[:, :, ki::kernel, kj::kernel] for ki in range(kernel) for kj in range(kernel)
    ]
    # C order whatever the layout of ``x``: the backward's per-slice
    # arithmetic then runs in the memory order of the incoming gradient.
    value = np.array(slices[0], order="C")
    for piece in slices[1:]:
        np.maximum(value, piece, out=value)
    out = x._make_output(value, (x,))

    def _backward(grad: np.ndarray) -> None:
        masks = [piece == value for piece in slices]
        count = np.sum(masks, axis=0, dtype=data.dtype)
        # C-contiguous like col2im's image, whatever the layout of ``x``:
        # later reductions of this gradient sum in memory order.
        grad_in = np.zeros(data.shape, dtype=data.dtype)
        for index, mask in enumerate(masks):
            ki, kj = divmod(index, kernel)
            share = np.divide(mask, count)
            share *= grad
            grad_in[:, :, ki::kernel, kj::kernel] += share
        x._accumulate(grad_in)

    out._backward_fn = _backward
    return out
