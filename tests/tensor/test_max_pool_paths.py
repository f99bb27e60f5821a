"""The direct max-pool path equals the im2col path bit for bit.

``F.max_pool2d`` pools windows that tile the image (``stride == kernel``
dividing H and W) as an elementwise maximum of strided slices, and every
other window through im2col.  These tests hold the direct path to the
im2col path's bits in the output and in the gradient, including the even
split of the gradient between tied maxima that saturated tanh produces.
"""

import numpy as np
import pytest

from repro.tensor import Tensor
from repro.tensor import functional as F
from repro.tensor.dtype import compute_dtype_scope


def _bits(array):
    return np.ascontiguousarray(array).tobytes()


def _pool_and_grad(pool, data, grad, kernel, *args):
    x = Tensor(data, requires_grad=True)
    out = pool(x, kernel, *args)
    out.backward(grad)
    return out.data, x.grad


def _saturated(seed, shape, dtype):
    """tanh of wide inputs: many exact +-1 values, so windows hold ties."""
    rng = np.random.default_rng(seed)
    return np.tanh(rng.normal(scale=30.0, size=shape)).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("kernel, shape", [(2, (3, 4, 8, 6)), (3, (2, 3, 9, 6)), (1, (2, 2, 3, 3))])
def test_direct_pool_matches_im2col_on_ties(dtype, kernel, shape):
    with compute_dtype_scope(dtype):
        data = _saturated(0, shape, dtype)
        out_shape = shape[:2] + (shape[2] // kernel, shape[3] // kernel)
        grad = np.random.default_rng(1).normal(size=out_shape).astype(dtype)
        grad.flat[::7] = -0.0  # a signed zero must keep its im2col-path sign
        direct = _pool_and_grad(F._tiled_max_pool2d, data, grad, kernel)
        im2col = _pool_and_grad(F._im2col_max_pool2d, data, grad, kernel, kernel)
    assert direct[0].dtype == im2col[0].dtype == dtype
    assert direct[1].dtype == im2col[1].dtype == dtype
    assert _bits(direct[0]) == _bits(im2col[0])
    assert _bits(direct[1]) == _bits(im2col[1])
    if kernel > 1:
        windows = data.reshape(shape[0], shape[1], out_shape[2], kernel, out_shape[3], kernel)
        ties = (windows == windows.max(axis=(3, 5), keepdims=True)).sum(axis=(3, 5))
        assert (ties > 1).any(), "the input must exercise the tie split"


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_tie_split_divides_by_the_tie_count(dtype):
    with compute_dtype_scope(dtype):
        window = np.array([[1.0, 1.0], [1.0, 0.5]], dtype=dtype)
        data = np.concatenate([window, np.ones((2, 2), dtype=dtype)], axis=1)[None, None]
        grad = np.array([[[[0.7, -0.3]]]], dtype=dtype)
        out, x_grad = _pool_and_grad(F.max_pool2d, data, grad, 2)
        _, reference = _pool_and_grad(F._im2col_max_pool2d, data, grad, 2, 2)
    third = (np.asarray(1.0, dtype) / np.asarray(3.0, dtype)) * grad[0, 0, 0, 0]
    quarter = (np.asarray(1.0, dtype) / np.asarray(4.0, dtype)) * grad[0, 0, 0, 1]
    expected = np.array([[third, third, quarter, quarter], [third, 0.0, quarter, quarter]])
    np.testing.assert_array_equal(out, [[[[1.0, 1.0]]]])
    assert _bits(x_grad) == _bits(expected.astype(dtype)[None, None])
    assert _bits(x_grad) == _bits(reference)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_nan_windows_match_im2col(dtype):
    with compute_dtype_scope(dtype):
        data = _saturated(2, (2, 2, 4, 4), dtype)
        data[0, 0, 0, 1] = np.nan
        data[1, 1, 3, 3] = np.nan
        grad = np.random.default_rng(3).normal(size=(2, 2, 2, 2)).astype(dtype)
        with np.errstate(invalid="ignore"):
            direct = _pool_and_grad(F._tiled_max_pool2d, data, grad, 2)
            im2col = _pool_and_grad(F._im2col_max_pool2d, data, grad, 2, 2)
    assert np.isnan(direct[0][0, 0, 0, 0]) and np.isnan(direct[0][1, 1, 1, 1])
    assert _bits(direct[0]) == _bits(im2col[0])
    assert _bits(direct[1]) == _bits(im2col[1])


def test_direct_pool_matches_im2col_on_a_transposed_input():
    # Conv outputs can reach a pool as transposed views; the direct path
    # must give the same bits and a C-contiguous gradient like col2im's.
    data = _saturated(4, (4, 4, 8, 3), np.float64).transpose(3, 1, 2, 0)
    grad = np.random.default_rng(5).normal(size=(3, 4, 4, 2))
    direct = _pool_and_grad(F._tiled_max_pool2d, data, grad, 2)
    im2col = _pool_and_grad(F._im2col_max_pool2d, data, grad, 2, 2)
    assert _bits(direct[0]) == _bits(im2col[0])
    assert _bits(direct[1]) == _bits(im2col[1])
    assert direct[1].flags.c_contiguous


def _forbid(monkeypatch, name):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"max_pool2d must not call {name} here")

    monkeypatch.setattr(F, name, forbidden)


@pytest.mark.parametrize(
    "shape, kernel, stride",
    [((1, 2, 5, 4), 2, 2), ((1, 2, 4, 7), 2, 2), ((1, 2, 6, 6), 3, 1), ((1, 2, 6, 6), 2, 1)],
)
def test_windows_that_do_not_tile_fall_back_to_im2col(monkeypatch, shape, kernel, stride):
    data = np.random.default_rng(6).normal(size=shape)
    _forbid(monkeypatch, "_tiled_max_pool2d")
    out = F.max_pool2d(Tensor(data), kernel=kernel, stride=stride)
    windows = np.lib.stride_tricks.sliding_window_view(data, (kernel, kernel), axis=(2, 3))
    np.testing.assert_array_equal(out.data, windows[:, :, ::stride, ::stride].max(axis=(4, 5)))


def test_tiling_windows_skip_im2col(monkeypatch):
    data = np.random.default_rng(7).normal(size=(2, 3, 6, 4))
    _forbid(monkeypatch, "_im2col_max_pool2d")
    _forbid(monkeypatch, "im2col")
    x = Tensor(data, requires_grad=True)
    out = F.max_pool2d(x, kernel=2)
    out.sum().backward()
    np.testing.assert_array_equal(
        out.data, data.reshape(2, 3, 3, 2, 2, 2).max(axis=(3, 5))
    )
    assert x.grad.shape == data.shape
