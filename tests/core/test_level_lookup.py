"""Quantisation as a level index plus a per-level table lookup.

``level_index`` rounds each activation to its level once; the quantised
value (``level_grid``) and its PLA re-encoding (``pla_table``) are then
single ``take``\\ s.  The contract: every lookup equals the elementwise
expression it replaces (``pla_approximate(quantize_uniform(x))``) bit for
bit, and the buffer reuse on the noisy evaluation path (noise added into the
drawn noise array) never writes a shared read nor detaches the autograd
graph.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EncodedConv2d, EncodedLinear
from repro.core.pla import activation_grid, pla_approximate, pla_table
from repro.models import VGG9, VGGConfig
from repro.quant.activation import level_grid, level_index, quantize_uniform, take_levels
from repro.sim import MultiSession, SimConfig, apply_config
from repro.tensor import Tensor, compute_dtype_scope, no_grad
from repro.tensor.random import RandomState
from repro.worker_env import blas_pool_pinned

LEVELS = (2, 3, 5, 9, 17)
PULSES = range(1, 17)
MODES = ("toward_extremes", "nearest")
DTYPES = ("float32", "float64")


def _elementwise_quantise(values: np.ndarray, levels: int) -> np.ndarray:
    """The quantiser's elementwise expression, as it was before the lookup."""
    steps = levels - 1
    clipped = np.clip(values, -1.0, 1.0)
    return np.round((clipped + 1.0) * 0.5 * steps) / steps * 2.0 - 1.0


def _probe_values(levels: int, dtype: str) -> np.ndarray:
    """Random activations plus every edge case of the rounding."""
    steps = levels - 1
    ties = (np.arange(steps) + 0.5) / steps * 2.0 - 1.0  # exact half steps
    grid = np.arange(levels) / steps * 2.0 - 1.0
    edges = [-1.0, 1.0, -0.0, 0.0, -1.5, 1.5, -1e9, 1e9, np.inf, -np.inf]
    random = np.tanh(RandomState(levels).normal(0.0, 1.5, size=2000))
    return np.concatenate([ties, grid, edges, random]).astype(dtype)


class TestLookupEquivalence:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("levels", LEVELS)
    def test_quantised_value_matches_elementwise_expression(self, levels, dtype):
        with compute_dtype_scope(dtype):
            values = _probe_values(levels, dtype)
            expected = _elementwise_quantise(values, levels)
            got = quantize_uniform(Tensor(values), levels=levels).data
        assert got.dtype == expected.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(got, expected)
        # Bit for bit, including the sign of zero.
        assert np.array_equal(np.signbit(got), np.signbit(expected))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("levels", LEVELS)
    def test_pla_lookup_matches_pla_of_quantised(self, levels, mode, dtype):
        with compute_dtype_scope(dtype):
            values = _probe_values(levels, dtype)
            quantised = _elementwise_quantise(values, levels)
            _, index = level_index(Tensor(values), levels)
            for pulses in PULSES:
                expected = pla_approximate(quantised, pulses, mode=mode)
                table = pla_table(levels, pulses, mode, np.dtype(dtype))
                got = take_levels(table, index, levels, pulses)
                assert got.dtype == expected.dtype == np.dtype(dtype)
                np.testing.assert_array_equal(got, expected, err_msg=f"{pulses} pulses")
                assert np.array_equal(np.signbit(got), np.signbit(expected))

    def test_tables_are_cached_and_read_only(self):
        float64 = np.dtype("float64")
        table = pla_table(9, 10, "toward_extremes", float64)
        assert table is pla_table(9, 10, "toward_extremes", float64)
        grid = level_grid(9, float64)
        for array in (table, grid):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0


class TestActivationGrid:
    @pytest.mark.parametrize("levels", range(2, 33))
    def test_grid_is_what_the_quantiser_emits(self, levels):
        grid = activation_grid(levels)
        np.testing.assert_array_equal(quantize_uniform(Tensor(grid), levels=levels).data, grid)
        assert grid is level_grid(levels, np.dtype("float64"))

    def test_grid_spans_the_range(self):
        np.testing.assert_array_equal(activation_grid(9), np.linspace(-1.0, 1.0, 9))


class TestNaNActivations:
    def test_base_encoding_rejects_nan(self):
        with pytest.raises(ValueError, match=r"9-level.*8 pulses"):
            quantize_uniform(Tensor([0.25, np.nan, -0.5]), levels=9)

    def test_pla_encoding_rejects_nan(self):
        layer = EncodedLinear(3, 2, noise_sigma=1.0, rng=RandomState(1), weight_rng=RandomState(2))
        apply_config(layer, SimConfig(mode="noisy", noise_sigma=1.0, pulses=12))
        with no_grad(), pytest.raises(ValueError, match=r"9-level.*12 pulses"):
            layer(Tensor([[0.1, np.nan, 1.0]]))

    def test_non_nan_index_stays_in_range(self):
        _, index = level_index(Tensor([np.nan, -np.inf, np.inf, 0.0]), 5)
        np.testing.assert_array_equal(index[1:], [0, 4, 2])
        with pytest.raises(ValueError, match="NaN"):
            take_levels(level_grid(5, np.dtype("float64")), index, 5, 4)


def _noisy_conv(pulses=8):
    layer = EncodedConv2d(2, 4, noise_sigma=2.0, rng=RandomState(3), weight_rng=RandomState(4))
    apply_config(layer, SimConfig(mode="noisy", noise_sigma=2.0, pulses=pulses))
    return layer


def _activations(shape=(3, 2, 6, 6)):
    return np.tanh(RandomState(5).normal(0.0, 1.0, size=shape))


class TestBufferReuse:
    def test_noisy_output_is_c_contiguous(self):
        layer = _noisy_conv()
        with no_grad():
            out = layer(Tensor(_activations()))
        assert out.data.flags.c_contiguous

    def test_noisy_output_equals_read_plus_noise(self):
        layer = _noisy_conv(pulses=12)
        x = Tensor(_activations())
        with no_grad():
            out = layer(x).data
            layer.noise_rng = RandomState(3)
            read = layer._ideal_read(layer._encode_input(x)).data
        noise = RandomState(3).normal(0.0, 2.0 / np.sqrt(12.0), size=read.shape)
        np.testing.assert_array_equal(out, read + noise)

    @pytest.mark.parametrize(
        "lanes, held",
        [(1, {(12, "toward_extremes")}), (2, {None, (12, "toward_extremes")})],
        ids=["one_lane", "two_lanes"],
    )
    def test_multi_session_leaves_the_memoised_reads_intact(self, lanes, held):
        model = VGG9(
            VGGConfig(num_classes=4, in_channels=1, image_size=16, width_multiplier=1 / 16),
            rng=RandomState(6),
        ).eval()
        configs = [
            SimConfig(mode="noisy", noise_sigma=2.0),
            SimConfig(mode="noisy", noise_sigma=3.0),
            SimConfig(mode="noisy", noise_sigma=2.0, pulses=12),
        ]
        inputs = Tensor(_activations((4, 1, 16, 16)))
        first = model.encoded_layers()[0]
        # A one-thread pool, so lanes=2 does start its second lane.
        with blas_pool_pinned(1), no_grad(), MultiSession(
            model, configs, rngs=[RandomState(k) for k in range(len(configs))], lanes=lanes
        ) as session:
            session.forward(inputs)
            memo = first._read_memo
            # One lane holds only the last encoding's read, two lanes all.
            assert set(memo.reads) == held
            assert memo.clipped is None and memo.index.dtype == np.uint8
            for key, read in memo.reads.items():
                fresh = first._ideal_read(memo.encoded(key))
                np.testing.assert_array_equal(read.data, fresh.data)

    def test_noisy_forward_with_grad_keeps_the_graph(self):
        # NIA trains in noisy mode with grad: the noise add must stay an
        # autograd op.  Its gradient is the identity, so at the base pulse
        # count every gradient equals the clean forward's.
        def forward(mode):
            layer = _noisy_conv()
            apply_config(layer, SimConfig(mode=mode, noise_sigma=2.0))
            x = Tensor(_activations(), requires_grad=True)
            out = layer(x)
            out.sum().backward()
            return layer, x, out

        clean_layer, clean_x, clean_out = forward("clean")
        noisy_layer, noisy_x, noisy_out = forward("noisy")
        assert noisy_out.requires_grad
        assert not np.array_equal(noisy_out.data, clean_out.data)
        assert np.any(noisy_x.grad != 0.0)
        np.testing.assert_array_equal(noisy_x.grad, clean_x.grad)
        np.testing.assert_array_equal(noisy_layer.weight.grad, clean_layer.weight.grad)
