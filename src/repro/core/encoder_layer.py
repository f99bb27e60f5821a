"""Crossbar-mapped layers with pulse-encoded inputs (paper Eq. 4 / Eq. 5).

``EncodedConv2d`` and ``EncodedLinear`` are binary-weight layers whose input
activation is quantised, thermometer/PLA encoded and driven through a noisy
crossbar.  They support three forward modes:

``clean``
    No crossbar noise; used for pre-training and for the "without noise"
    accuracy the paper quotes (90.80%).
``noisy``
    Inference on the crossbar: the layer's configured pulse count determines
    both the PLA re-encoding of the input and the effective noise variance
    ``sigma^2 / n`` (Eq. 4).  The accumulated read noise is sampled by the
    layer's :class:`~repro.backend.engine.SimulationEngine` (one folded draw
    on the vectorized engine, per-pulse draws on the reference engine —
    statistically identical, verified in the tests); the *simulate* path
    drives the full pulse train through a
    :class:`~repro.crossbar.tiling.TiledCrossbar` via the same engine.
``gbo``
    Training mode of Section III-A: the layer mixes the noisy reads of every
    candidate pulse length with the softmax weights ``alpha_k`` derived from
    its learnable logits ``lambda_k`` (Eq. 5), so gradients reach the logits.
    The whole candidate mixture is one engine primitive
    (:meth:`~repro.backend.engine.SimulationEngine.gbo_mixture_read`): the
    reference engine performs one crossbar read per candidate, the vectorized
    engine folds Omega into a single read plus one Gaussian draw of deviation
    ``sqrt(sum_k (alpha_k s_k)^2)`` — the exact distribution of the mixture,
    though not the reference's samples.

**The fused read.**  Every mode's ideal read is one op, ``_ideal_read``, on
an :class:`EncodedInput`: the activation's level index and its encoding key,
never a materialised encoded tensor.  The crossbar adds +-1 weights against
thermometer pulses, so an ideal read is a count of pulses scaled by ``1/n``.
When every entry of the encoding's per-level table is a multiple of
``2^-k`` in ``[-1, 1]`` (the 9-level base grid, and PLA at 4, 8 and 16
pulses), the weights are +-1 (``scale_mode="none"``) and
``fan_in * 2^k <= 2^24``, every partial sum of the read is an integer
multiple of ``2^-k`` no larger than ``fan_in`` in magnitude, so it is exact
in single precision as in double, whatever order the BLAS kernel sums in.
For such an encoding a read that records a graph (GBO, NIA, pre-training)
looks the levels up in float32, lowers them (``im2col`` for a convolution)
in float32, runs one sgemm and casts the result to the compute dtype: the
very bits of the compute-dtype product.  Whether an encoding qualifies is
decided once per table (:func:`_table_bits`, cached like
:func:`~repro.core.pla.pla_table`) and by the layer's shape, never from
the data or the layer's current forward state.  Every other encoding (PLA
at 6, 10, 12 and 14 pulses), and every read under ``no_grad``, reads in the
compute dtype inside the same op: an evaluation process that serves mixed
pulse counts would otherwise interleave float32 and float64 columns of
different sizes, and glibc's heap then grows (e2ebench ``serve_mixed``
peak RSS rose from 72.6 to 78.9 MB on a 2-CPU host).  The backward needs only the binary weights and the input shape: the
input gradient is ``col2im(W^T g)`` (``g W`` for a linear layer), in the
operand order of the unfused matmul, and only when the weights learn
(pre-training, NIA) are the compute-dtype columns rebuilt from the level
index for the weight gradient.  No graph therefore keeps an ``im2col``
matrix or an encoded copy of its input.
"""

from __future__ import annotations

import functools
from typing import List, Literal, NamedTuple, Optional, Tuple

import numpy as np

from repro.backend import resolve_engine
from repro.backend.engine import EngineLike, SimulationEngine
from repro.crossbar.array import CrossbarConfig
from repro.crossbar.encoding import ThermometerEncoder
from repro.crossbar.mvm import pulsed_mvm
from repro.crossbar.tiling import TiledCrossbar
from repro.core.pla import RoundingMode, pla_table
from repro.core.search_space import PulseScalingSpace
from repro.nn.module import Parameter
from repro.quant.activation import ActivationQuantizer, level_grid, level_index, take_levels
from repro.quant.qat import QuantConv2d, QuantLinear
from repro.tensor import Tensor, is_grad_enabled
from repro.tensor.dtype import resolve_dtype
from repro.tensor.functional import col2im, conv_output_size, im2col, softmax
from repro.tensor.random import RandomState, default_rng

ForwardMode = Literal["clean", "noisy", "gbo"]


class ReadMemo:
    """One input batch's encoded-layer work, made once and reused.

    Keyed by the input object: ``index`` is its level index (see
    :func:`~repro.quant.activation.level_index`; one byte per element for
    up to 255 levels), and ``reads`` maps each encoding key (see
    :meth:`EncodedLayerMixin._encoding_key`) to its ideal crossbar read, made
    by the layer's fused read of :meth:`encoded` of that key.  An entry
    depends on its key alone, not on the encoding the layer is configured
    for when it is read: the fused read may sum in float32 only where the
    key's table is dyadic and the layer's sums fit 24 bits, so every partial
    sum is exact (see the module docstring), and each entry holds the bits
    of the compute-dtype read.  A new input object resets both.  With gradients enabled the memo also
    keeps the clipped activation, whose straight-through estimator the
    encoded input carries; under ``no_grad`` it keeps only the dtype.  The
    reads are shared by every user, so nothing may write into them.  A
    :class:`repro.sim.MultiSession` fills one per batch and shares it,
    ``sealed``, across scenarios and both its lanes (with one lane it holds
    one encoding's read at a time); GBO training
    fills one per step ahead of the forward (see :mod:`repro.core.gbo`).  A
    sealed memo is read-only: a read it does not hold raises.
    """

    __slots__ = ("inputs", "clipped", "dtype", "index", "reads", "sealed")

    def __init__(self) -> None:
        self.inputs: Optional[Tensor] = None
        self.clipped: Optional[Tensor] = None
        self.dtype: Optional[np.dtype] = None
        self.index: Optional[np.ndarray] = None
        self.reads: dict = {}
        self.sealed = False

    def read(self, layer: "EncodedLayerMixin", x: Tensor) -> Tensor:
        """``layer``'s ideal read of ``x`` in its current encoding, memoised."""
        key = layer._encoding_key()
        if self.sealed and (self.inputs is not x or key not in self.reads):
            raise RuntimeError(
                f"a sealed read memo holds no read of this input in encoding {key}"
            )
        if self.inputs is not x:
            levels = layer.act_quantizer.levels
            clipped, self.index = level_index(x, levels, dtype=_index_dtype(levels))
            self.clipped = clipped if is_grad_enabled() else None
            self.inputs, self.dtype, self.reads = x, clipped.data.dtype, {}
        if key not in self.reads:
            self.reads[key] = layer._ideal_read(self.encoded(key))
        return self.reads[key]

    def encoded(self, key) -> "EncodedInput":
        """The memoised input in encoding ``key``."""
        return EncodedInput(self.index, key, self.dtype, self.clipped)


class EncodedInput(NamedTuple):
    """An activation as a crossbar reads it: level index and encoding key.

    ``index`` holds each element's level (see
    :func:`~repro.quant.activation.level_index`), ``key`` the encoding
    (``None`` for the base, ``(pulses, mode)`` for a PLA re-encoding),
    ``dtype`` the compute dtype, and ``clipped`` the clipped activation whose
    straight-through estimator the read's input gradient takes (``None``
    when no graph is recorded).  Nothing is materialised: the fused read
    looks the values up in the precision it reads in.
    """

    index: np.ndarray
    key: Optional[Tuple[int, RoundingMode]]
    dtype: np.dtype
    clipped: Optional[Tensor]

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.index.shape


def _index_dtype(levels: int):
    """The narrowest integer type :func:`level_index` stores ``levels`` in."""
    return np.uint8 if levels <= 255 else np.intp


@functools.lru_cache(maxsize=None)
def _table_bits(levels: int, key) -> Optional[int]:
    """The least ``k`` for which every entry of the encoding ``key``'s
    per-level table is a multiple of ``2^-k`` in ``[-1, 1]``; ``None`` if no
    ``k <= 24`` is (a table of thirds, fifths or sevenths)."""
    if key is None:
        table = level_grid(levels, np.dtype(np.float64))
    else:
        table = pla_table(levels, key[0], key[1], np.dtype(np.float64))
    if np.any(np.abs(table) > 1.0):
        return None
    for bits in range(25):
        scaled = table * float(2**bits)
        if np.array_equal(scaled, np.rint(scaled)):
            return bits
    return None


class EncodedLayerMixin:
    """Shared configuration and noise machinery of the encoded layers.

    The mixin holds everything that is *about the crossbar mapping* rather
    than about the linear algebra: activation quantiser, pulse count, noise
    level, forward mode and the GBO logits.  Sub-classes implement
    ``_ideal_read`` (the noise-free binary-weight read of an encoded
    activation), ``_weight_matrix`` and ``fan_in``; the read noise takes the
    shape of the ideal read.
    """

    def _init_encoding(
        self,
        activation_levels: int = 9,
        noise_sigma: float = 0.0,
        sigma_relative_to_fan_in: bool = False,
        pla_mode: RoundingMode = "toward_extremes",
        rng: Optional[RandomState] = None,
        engine: EngineLike = None,
    ) -> None:
        self.act_quantizer = ActivationQuantizer(levels=activation_levels)
        self.base_pulses = activation_levels - 1
        self.num_pulses = self.base_pulses
        self.noise_sigma = float(noise_sigma)
        self.sigma_relative_to_fan_in = sigma_relative_to_fan_in
        self.pla_mode: RoundingMode = pla_mode
        self.mode: ForwardMode = "clean"
        self.noise_rng = rng or default_rng()
        self.gbo_space: Optional[PulseScalingSpace] = None
        self.gbo_logits: Optional[Parameter] = None
        self._engine: Optional[SimulationEngine] = (
            None if engine is None else resolve_engine(engine)
        )
        # Shared-input memo, attached to a model's first encoded layer by
        # repro.sim.MultiSession for a multi-scenario evaluation (to both
        # lanes' models) and by GBOTrainer for each training step; else None.
        self._read_memo: Optional[ReadMemo] = None

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    @property
    def fan_in(self) -> int:
        """Number of crossbar rows feeding each output (defined by subclasses)."""
        raise NotImplementedError

    def effective_sigma(self) -> float:
        """Per-pulse noise standard deviation used by this layer."""
        if self.sigma_relative_to_fan_in:
            return self.noise_sigma * float(np.sqrt(max(self.fan_in, 1)))
        return self.noise_sigma

    # -- internal appliers: the only code that mutates simulation state;
    # ``repro.sim`` (Session / apply_config) and the trainers go through them.
    def _apply_mode(self, mode: ForwardMode) -> None:
        if mode not in ("clean", "noisy", "gbo"):
            raise ValueError(f"unknown forward mode {mode!r}")
        if mode == "gbo" and self.gbo_logits is None:
            raise ValueError("enable_gbo() must be called before entering gbo mode")
        self.mode = mode

    def _apply_pulses(self, num_pulses: int) -> None:
        if num_pulses < 1:
            raise ValueError(f"num_pulses must be positive, got {num_pulses}")
        self.num_pulses = int(num_pulses)

    def _apply_noise(self, sigma: float, relative_to_fan_in: Optional[bool] = None) -> None:
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        self.noise_sigma = float(sigma)
        if relative_to_fan_in is not None:
            self.sigma_relative_to_fan_in = bool(relative_to_fan_in)

    def _apply_pla_mode(self, pla_mode: RoundingMode) -> None:
        if pla_mode not in ("toward_extremes", "nearest"):
            raise ValueError(f"unknown PLA rounding mode {pla_mode!r}")
        self.pla_mode = pla_mode

    def _apply_engine(self, engine: EngineLike) -> None:
        self._engine = None if engine is None else resolve_engine(engine)

    @property
    def engine(self) -> SimulationEngine:
        """Simulation engine executing this layer's noisy reads.

        The engine a config pinned, else the unpinned answer of
        :func:`repro.sim.resolve_engine_name`.
        """
        return self._engine if self._engine is not None else resolve_engine(None)

    # ------------------------------------------------------------------
    # GBO support (Eq. 5)
    # ------------------------------------------------------------------
    def enable_gbo(self, space: PulseScalingSpace) -> Parameter:
        """Attach learnable encoding logits ``lambda_k`` over ``space``."""
        self.gbo_space = space
        logits = Parameter(np.zeros(space.num_options), name="gbo_logits")
        # Register on the Module so parameters()/state_dict() see it.
        self.register_parameter("gbo_logits", logits)
        return logits

    def gbo_alphas(self) -> Tensor:
        """Softmax importance weights ``alpha_k`` of the candidate encodings."""
        if self.gbo_logits is None:
            raise ValueError("GBO is not enabled on this layer")
        return softmax(self.gbo_logits, axis=0)

    def gbo_expected_latency(self) -> Tensor:
        """Differentiable expected pulse count ``sum_k alpha_k n_k p`` (Eq. 6)."""
        alphas = self.gbo_alphas()
        counts = Tensor(np.asarray(self.gbo_space.pulse_counts, dtype=resolve_dtype()))
        return (alphas * counts).sum()

    def gbo_selected_pulses(self) -> int:
        """Argmax-selected pulse count (the paper's inference-time choice)."""
        if self.gbo_logits is None:
            raise ValueError("GBO is not enabled on this layer")
        best = int(np.argmax(self.gbo_logits.data))
        return self.gbo_space.pulses_for(best)

    def _gbo_noise_scales(self) -> List[float]:
        """Accumulated noise deviation ``sigma / sqrt(n_k p)`` per candidate."""
        sigma = self.effective_sigma()
        return [sigma / np.sqrt(float(pulses)) for pulses in self.gbo_space.pulse_counts]

    def _gbo_mixture_forward(self, read_op) -> Tensor:
        """One GBO forward: the engine's candidate-mixture read (Eq. 5).

        ``read_op`` performs this layer's ideal crossbar read.  The engine
        decides whether all candidates in Omega are evaluated by literal
        per-candidate reads (reference oracle) or folded into a single read
        plus one folded noise draw (vectorized); gradients reach the logits
        through the softmax weights either way.
        """
        return self.engine.gbo_mixture_read(
            read_op, self.gbo_alphas(), self._gbo_noise_scales(), self.noise_rng
        )

    # ------------------------------------------------------------------
    # Input encoding
    # ------------------------------------------------------------------
    def _encode_input(self, x: Tensor) -> EncodedInput:
        """Quantise the activation and key it to the current encoding.

        In ``clean`` and ``gbo`` modes the input keeps its exact 9-level
        representation (the baseline 8-pulse encoding); in ``noisy`` mode the
        value is re-encoded for ``self.num_pulses`` pulses, which introduces
        the PLA approximation error whenever the pulse count cannot represent
        the original levels exactly.
        """
        levels = self.act_quantizer.levels
        clipped, index = level_index(x, levels, dtype=_index_dtype(levels))
        return EncodedInput(
            index,
            self._encoding_key(),
            clipped.data.dtype,
            clipped if clipped.requires_grad else None,
        )

    def _encoding_key(self) -> Optional[Tuple[int, RoundingMode]]:
        """PLA re-encoding of the current configuration, ``None`` for the base."""
        if self.mode == "noisy" and self.num_pulses != self.base_pulses:
            return (self.num_pulses, self.pla_mode)
        return None

    def _level_values(
        self, index: np.ndarray, key: Optional[Tuple[int, RoundingMode]], dtype: np.dtype
    ) -> np.ndarray:
        """The encoded activation value of each level index, in ``dtype``.

        ``key`` ``None`` keeps the quantised value; ``(pulses, mode)`` takes
        its PLA re-encoding.  Both are one lookup in a cached per-level table.
        """
        levels = self.act_quantizer.levels
        if key is None:
            table, pulses = level_grid(levels, dtype), self.base_pulses
        else:
            table, pulses = pla_table(levels, key[0], key[1], dtype), key[0]
        return take_levels(table, index, levels, pulses)

    def _encoded_forward(self, x: Tensor) -> Tensor:
        """The layer forward in the current configuration.

        With a :class:`ReadMemo` attached, an input seen before (the same
        object) reuses its level index and the ideal read of each distinct
        encoding; only the read noise is drawn anew.  The reused read is the
        very array the plain path would compute, so the output is the same.
        """
        memo = self._read_memo
        if memo is None:
            encoded = self._encode_input(x)
            return self._crossbar_forward(lambda: self._ideal_read(encoded))
        read = memo.read(self, x)
        return self._crossbar_forward(lambda: read)

    def _crossbar_forward(self, read_op) -> Tensor:
        """Dispatch one forward, given its ideal read, to the current mode.

        ``gbo`` mode hands the whole candidate mixture (``read_op`` included)
        to the engine so all of Omega is evaluated in one primitive; the
        other modes perform a single ideal read and add the mode's noise.
        """
        if self.mode == "gbo" and self.effective_sigma() > 0:
            return self._gbo_mixture_forward(read_op)
        return self._apply_output_noise(read_op())

    def _ideal_read(self, encoded: EncodedInput) -> Tensor:
        """One ideal (noise-free) crossbar read of the encoded activation:
        the fused read op of the module docstring."""
        raise NotImplementedError

    def _read_operands(self, encoded: EncodedInput):
        """The binary weight, its ``(out, fan_in)`` matrix in the compute
        dtype and in the read's precision, and the encoded values in it.

        The read is float32 when it records a graph, ``encoded``'s table
        is dyadic (see :func:`_table_bits`), the weights are +-1 and
        ``fan_in * 2^k`` fits float32's 24-bit significand; else it is the
        compute dtype.
        """
        weight = self.binary_weight()
        matrix = weight.data.reshape(weight.shape[0], -1)
        bits = _table_bits(self.act_quantizer.levels, encoded.key)
        exact = (
            bits is not None
            and self.quantizer.scale_mode == "none"
            and self.fan_in << bits <= 1 << 24
            and is_grad_enabled()
        )
        dtype = np.dtype(np.float32) if exact else encoded.dtype
        values = self._level_values(encoded.index, encoded.key, dtype)
        return weight, matrix, matrix.astype(dtype, copy=False), values

    def _apply_output_noise(self, output: Tensor) -> Tensor:
        """Add the crossbar read noise appropriate for the current mode.

        ``gbo`` mode reaches this only at sigma == 0, where the candidate
        reads are all identical and the mixture degenerates to the ideal
        read; ``_crossbar_forward`` routes the sigma > 0 mixture through the
        engine's ``gbo_mixture_read``.

        When the sum records no graph, the read is added into the freshly
        drawn noise array: one C-contiguous result, no extra temporary, and
        ``output`` (possibly a memoised read) is never written.
        """
        if self.mode == "noisy":
            sigma = self.effective_sigma()
            if sigma > 0:
                noise = self.engine.folded_read_noise(
                    output.shape, sigma, self.num_pulses, self.noise_rng
                )
                if is_grad_enabled() and output.requires_grad:
                    return output + Tensor(noise)
                return Tensor(np.add(output.data, noise, out=noise))
        return output

    # ------------------------------------------------------------------
    # Hardware mapping inspection
    # ------------------------------------------------------------------
    def as_crossbar(self, config: Optional[CrossbarConfig] = None) -> TiledCrossbar:
        """Materialise this layer's binary weight matrix on (tiled) crossbars."""
        matrix = self._weight_matrix()
        return TiledCrossbar(matrix, config=config or CrossbarConfig(), rng=self.noise_rng)

    def _weight_matrix(self) -> np.ndarray:
        """Binary weight matrix of shape ``(out_features, fan_in)``."""
        raise NotImplementedError


class EncodedConv2d(QuantConv2d, EncodedLayerMixin):
    """Binary-weight convolution with pulse-encoded input and crossbar noise."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: int = 1,
        activation_levels: int = 9,
        noise_sigma: float = 0.0,
        sigma_relative_to_fan_in: bool = False,
        pla_mode: RoundingMode = "toward_extremes",
        rng: Optional[RandomState] = None,
        weight_rng: Optional[RandomState] = None,
        engine: EngineLike = None,
    ):
        super().__init__(
            in_channels,
            out_channels,
            kernel_size,
            stride,
            padding,
            bias=False,
            rng=weight_rng,
        )
        self._init_encoding(
            activation_levels=activation_levels,
            noise_sigma=noise_sigma,
            sigma_relative_to_fan_in=sigma_relative_to_fan_in,
            pla_mode=pla_mode,
            rng=rng,
            engine=engine,
        )

    @property
    def fan_in(self) -> int:
        return self.in_channels * self.kernel_size * self.kernel_size

    def _weight_matrix(self) -> np.ndarray:
        from repro.quant.binary import binary_sign

        return binary_sign(self.weight.data).reshape(self.out_channels, -1)

    def _ideal_read(self, encoded: EncodedInput) -> Tensor:
        weight, matrix, read_matrix, values = self._read_operands(encoded)
        kernel, stride, padding = self.kernel_size, self.stride, self.padding
        batch, _, height, width = encoded.shape
        out_h = conv_output_size(height, kernel, stride, padding)
        out_w = conv_output_size(width, kernel, stride, padding)
        product = read_matrix @ im2col(values, kernel, stride, padding)
        product = product.astype(encoded.dtype, copy=False)
        clipped = encoded.clipped
        # The unfused matmul's parent order, so the backward visits alike.
        parents = (weight,) if clipped is None else (weight, clipped)
        # im2col orders columns spatial-major (out_h, out_w, batch); undo that.
        out = weight._make_output(
            product.reshape(self.out_channels, out_h, out_w, batch).transpose(3, 0, 1, 2),
            parents,
        )
        if not out.requires_grad:
            return out
        shape, key, dtype = encoded.shape, encoded.key, encoded.dtype
        index = encoded.index if weight.requires_grad else None

        # The unfused graph's chain, operand for operand, so the bits hold:
        # transpose and reshape back, then the matmul's weight product first.
        def _backward(grad: np.ndarray) -> None:
            grad = grad.transpose(1, 2, 3, 0).reshape(self.out_channels, -1)
            if weight.requires_grad:
                cols = im2col(self._level_values(index, key, dtype), kernel, stride, padding)
                weight._accumulate((grad @ cols.T).reshape(weight.shape))
            if clipped is not None and clipped.requires_grad:
                clipped._accumulate(col2im(matrix.T @ grad, shape, kernel, stride, padding))

        out._backward_fn = _backward
        return out

    def forward(self, x: Tensor) -> Tensor:
        return self._encoded_forward(x)

    def __repr__(self) -> str:
        return (
            f"EncodedConv2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, pulses={self.num_pulses}, "
            f"sigma={self.noise_sigma}, mode={self.mode!r})"
        )


class EncodedLinear(QuantLinear, EncodedLayerMixin):
    """Binary-weight fully-connected layer with pulse-encoded input."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation_levels: int = 9,
        noise_sigma: float = 0.0,
        sigma_relative_to_fan_in: bool = False,
        pla_mode: RoundingMode = "toward_extremes",
        rng: Optional[RandomState] = None,
        weight_rng: Optional[RandomState] = None,
        engine: EngineLike = None,
    ):
        super().__init__(in_features, out_features, bias=False, rng=weight_rng)
        self._init_encoding(
            activation_levels=activation_levels,
            noise_sigma=noise_sigma,
            sigma_relative_to_fan_in=sigma_relative_to_fan_in,
            pla_mode=pla_mode,
            rng=rng,
            engine=engine,
        )

    @property
    def fan_in(self) -> int:
        return self.in_features

    def _weight_matrix(self) -> np.ndarray:
        from repro.quant.binary import binary_sign

        return binary_sign(self.weight.data)

    def _ideal_read(self, encoded: EncodedInput) -> Tensor:
        weight, matrix, read_matrix, values = self._read_operands(encoded)
        product = (values @ read_matrix.T).astype(encoded.dtype, copy=False)
        clipped = encoded.clipped
        # The unfused matmul's parent order, so the backward visits alike.
        parents = (weight,) if clipped is None else (clipped, weight)
        out = weight._make_output(product, parents)
        if not out.requires_grad:
            return out
        key, dtype = encoded.key, encoded.dtype
        index = encoded.index if weight.requires_grad else None

        # The unfused ``x @ W^T``'s products: the input's first, then the
        # weight's as the transposed view its transpose node handed on.
        def _backward(grad: np.ndarray) -> None:
            if clipped is not None and clipped.requires_grad:
                clipped._accumulate(grad @ matrix)
            if weight.requires_grad:
                inputs = self._level_values(index, key, dtype)
                weight._accumulate((inputs.T @ grad).T)

        out._backward_fn = _backward
        return out

    def forward(self, x: Tensor) -> Tensor:
        return self._encoded_forward(x)

    def simulate_pulsed_forward(
        self,
        x: np.ndarray,
        crossbar_config: Optional[CrossbarConfig] = None,
        engine: EngineLike = None,
    ) -> np.ndarray:
        """Pulse-train crossbar simulation of this layer (validation path).

        Quantises ``x``, applies PLA for the layer's current pulse count
        (whatever its forward mode), encodes it with a thermometer encoder of
        that count and drives the train through a tiled crossbar built from
        the layer's binary weights, using ``engine`` (defaulting to the
        layer's engine).  Used by the tests to confirm that the fast folded
        path has the same statistics.
        """
        key = None
        if self.num_pulses != self.base_pulses:
            key = (self.num_pulses, self.pla_mode)
        clipped, index = level_index(Tensor(x), self.act_quantizer.levels)
        values = self._level_values(index, key, clipped.data.dtype)
        crossbar = self.as_crossbar(crossbar_config)
        encoder = ThermometerEncoder(self.num_pulses)
        engine = self.engine if engine is None else resolve_engine(engine)
        return pulsed_mvm(crossbar, values, encoder, add_noise=True, engine=engine)

    def __repr__(self) -> str:
        return (
            f"EncodedLinear({self.in_features}, {self.out_features}, "
            f"pulses={self.num_pulses}, sigma={self.noise_sigma}, mode={self.mode!r})"
        )
