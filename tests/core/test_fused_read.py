"""The encoded layers' fused read against the composition it replaced.

Before the fused op, an encoded layer built its encoded input as a tensor
(``clipped.with_data(values)``) and read it through ``Conv2d.convolve`` or
``Tensor.matmul``.  The fused op reads from the level index and encoding key
alone, in float32 where the sum is exact and a graph is recorded (see
:mod:`repro.core.encoder_layer`), so these tests hold it to that composition
bit for bit — forward, input gradient and weight gradient — for every
9-level table at 4 to 16 pulses in both PLA modes, at either compute dtype;
and check that one GBO step's graph keeps no im2col matrix and no encoded
copy of any layer's input.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import GBOConfig, GBOTrainer
from repro.core.encoder_layer import (
    EncodedConv2d,
    EncodedInput,
    EncodedLayerMixin,
    EncodedLinear,
    ReadMemo,
    _table_bits,
)
from repro.core.pla import pla_table
from repro.core.search_space import PulseScalingSpace
from repro.data import DataLoader, TensorDataset
from repro.models import VGG9, VGGConfig
from repro.quant.activation import level_grid, level_index
from repro.sim import SimConfig, apply_config
from repro.tensor import Tensor, no_grad
from repro.tensor.dtype import compute_dtype_scope
from repro.tensor.random import RandomState

MODES = ("toward_extremes", "nearest")
KEYS = [None] + [(pulses, mode) for pulses in range(4, 17) for mode in MODES]
KINDS = ("conv_pad0", "conv_pad1", "linear")


def _key_id(key) -> str:
    return "base" if key is None else f"{key[0]}_{key[1]}"


def _layer(kind: str) -> EncodedLayerMixin:
    if kind == "linear":
        return EncodedLinear(20, 6, rng=RandomState(1), weight_rng=RandomState(2))
    padding = 1 if kind == "conv_pad1" else 0
    return EncodedConv2d(
        3, 5, padding=padding, rng=RandomState(1), weight_rng=RandomState(2)
    )


def _input(kind: str) -> Tensor:
    shape = (4, 20) if kind == "linear" else (2, 3, 6, 7)
    # Wide enough that some activations clip at +-1.
    return Tensor(np.tanh(RandomState(3).normal(scale=1.5, size=shape)), requires_grad=True)


def _composed(layer: EncodedLayerMixin, x: Tensor, key) -> Tensor:
    """The read as the layers made it before the fused op."""
    clipped, index = level_index(x, layer.act_quantizer.levels)
    encoded = clipped.with_data(layer._level_values(index, key, clipped.data.dtype))
    if isinstance(layer, EncodedConv2d):
        return layer.convolve(encoded, layer.binary_weight())
    return encoded.matmul(layer.binary_weight().transpose())


def _fused(layer: EncodedLayerMixin, x: Tensor, key) -> Tensor:
    clipped, index = level_index(x, layer.act_quantizer.levels, dtype=np.uint8)
    return layer._ideal_read(EncodedInput(index, key, clipped.data.dtype, clipped))


def _bits(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array).tobytes()


def _read_with_grads(read, kind: str, key):
    layer, x = _layer(kind), _input(kind)
    out = read(layer, x, key)
    upstream = RandomState(4).normal(size=out.shape).astype(out.dtype)
    out.backward(upstream)
    return out.data, x.grad, layer.weight.grad


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("key", KEYS, ids=_key_id)
@pytest.mark.parametrize("kind", KINDS)
def test_fused_read_equals_the_composition_bit_for_bit(kind, key, dtype):
    with compute_dtype_scope(dtype):
        fused = _read_with_grads(_fused, kind, key)
        composed = _read_with_grads(_composed, kind, key)
    for name, got, want in zip(("forward", "input grad", "weight grad"), fused, composed):
        assert got.dtype == want.dtype == np.dtype(dtype), name
        assert got.shape == want.shape, name
        assert _bits(got) == _bits(want), name
    # The read's layout is the composition's, so later reductions sum alike.
    assert fused[0].strides == composed[0].strides


def test_exactness_is_a_property_of_the_table():
    assert _table_bits(9, None) == 2
    for pulses in range(1, 17):
        for mode in MODES:
            bits = _table_bits(9, (pulses, mode))
            if pulses in (1, 2, 4, 8, 16):
                scaled = pla_table(9, pulses, mode, np.dtype(np.float64)) * 2.0**bits
                assert np.array_equal(scaled, np.rint(scaled))
                # ... and no fewer bits would do.
                assert bits == 0 or not np.array_equal(scaled / 2, np.rint(scaled / 2))
            else:
                assert bits is None, pulses
    np.testing.assert_array_equal(level_grid(9, np.dtype(np.float64)) * 4.0, np.arange(-4, 5))


@pytest.mark.parametrize("kind", KINDS)
def test_graph_reads_of_exact_tables_are_float32_and_the_rest_compute_dtype(kind):
    layer = _layer(kind)
    clipped, index = level_index(_input(kind), 9, dtype=np.uint8)
    for key in KEYS:
        encoded = EncodedInput(index, key, clipped.data.dtype, None)
        exact = key is None or key[0] in (4, 8, 16)
        assert layer._read_operands(encoded)[3].dtype == (np.float32 if exact else np.float64)
        with no_grad():
            assert layer._read_operands(encoded)[3].dtype == np.float64, key


def test_a_sum_past_24_bits_reads_in_the_compute_dtype(monkeypatch):
    layer = _layer("linear")
    clipped, index = level_index(_input("linear"), 9, dtype=np.uint8)
    encoded = EncodedInput(index, (16, "toward_extremes"), clipped.data.dtype, None)
    assert layer._read_operands(encoded)[3].dtype == np.float32
    # Sums of fan_in multiples of 2^-k fit float32 up to fan_in = 2^(24 - k).
    rows = 2 ** (24 - _table_bits(9, encoded.key))
    monkeypatch.setattr(EncodedLinear, "fan_in", property(lambda self: rows))
    assert layer._read_operands(encoded)[3].dtype == np.float32
    monkeypatch.setattr(EncodedLinear, "fan_in", property(lambda self: rows + 1))
    assert layer._read_operands(encoded)[3].dtype == np.float64


def test_a_mean_scaled_weight_reads_in_the_compute_dtype():
    layer = _layer("conv_pad1")
    layer.quantizer.scale_mode = "mean"
    clipped, index = level_index(_input("conv_pad1"), 9, dtype=np.uint8)
    encoded = EncodedInput(index, None, clipped.data.dtype, None)
    assert layer._read_operands(encoded)[3].dtype == np.float64


@pytest.mark.parametrize(
    "selected, read",
    [(12, (16, "toward_extremes")), (16, (12, "toward_extremes")), (8, (6, "nearest"))],
)
def test_a_memo_read_depends_on_its_key_not_on_the_selected_encoding(selected, read):
    """A multi-scenario memo reads each encoding while the layer may be
    selected for another; the entry must be the read of its own key."""
    layer = _layer("conv_pad1")
    apply_config(layer, SimConfig(mode="noisy", noise_sigma=1.0, pulses=selected))
    x = _input("conv_pad1")
    with no_grad():
        memo = ReadMemo()
        memo.read(layer, x)
        entry = layer._ideal_read(memo.encoded(read)).data
        want = _composed(layer, x, read).data
    assert layer._encoding_key() != read
    assert _bits(entry) == _bits(want)


def _graph_arrays(root: Tensor):
    """Every array a graph holds: each node's data and its backward closure's."""
    arrays, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        arrays.append(node.data)
        cells = node._backward_fn.__closure__ if node._backward_fn is not None else None
        for cell in cells or ():
            try:
                value = cell.cell_contents
            except ValueError:  # an empty cell
                continue
            if isinstance(value, np.ndarray):
                arrays.append(value)
            elif isinstance(value, Tensor):
                stack.append(value)
        stack.extend(node._parents)
    return arrays


def test_a_gbo_step_graph_keeps_no_im2col_columns_or_encoded_copies(monkeypatch):
    model = VGG9(
        VGGConfig(num_classes=4, image_size=16, width_multiplier=1 / 16), rng=RandomState(5)
    )
    apply_config(model, SimConfig(noise_sigma=3.0))
    rng = RandomState(6)
    images = np.tanh(rng.normal(scale=1.5, size=(8, 3, 16, 16)))
    loader = DataLoader(TensorDataset(images, rng.randint(0, 4, size=8)), batch_size=8)

    inputs = {}  # encoded layer -> the shape of its input in the step
    for cls in (EncodedConv2d, EncodedLinear):
        def forward(self, x, _forward=cls.forward):
            inputs[self] = x.shape
            return _forward(self, x)

        monkeypatch.setattr(cls, "forward", forward)
    graphs = []
    backward = Tensor.backward

    def recording_backward(self, grad=None):
        graphs.append(_graph_arrays(self))
        return backward(self, grad)

    monkeypatch.setattr(Tensor, "backward", recording_backward)
    GBOTrainer(model, GBOConfig(space=PulseScalingSpace(), epochs=1)).train(loader)
    (arrays,) = graphs
    layers = model.encoded_layers()
    assert set(inputs) == set(layers)

    grid = level_grid(9, np.dtype(np.float64))
    forbidden = set()
    for layer in layers:
        shape = inputs[layer]
        if isinstance(layer, EncodedConv2d):
            batch, _, height, width = shape
            forbidden.add((layer.fan_in, batch * height * width))  # 3x3, stride 1, pad 1
    assert forbidden and all(a.shape not in forbidden for a in arrays)
    encoded_copies = [
        a
        for a in arrays
        if a.dtype == np.float64
        and a.shape in {inputs[layer] for layer in layers}
        and np.isin(a, grid).all()
    ]
    assert encoded_copies == []
