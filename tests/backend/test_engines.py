"""Backend engine tests: registry/selection plumbing and the statistical
equivalence of ReferenceEngine and VectorizedEngine.

The load-bearing property is noise equivalence on *tiled* crossbars: a
logical read split across ``T`` row-tiles accumulates ``T`` independent
Gaussian noises per pulse, and a train of ``p`` weighted pulses accumulates
``p`` of those reads.  Because every contribution is i.i.d. Gaussian, the
total is ``N(0, read_std^2 * sum_i w_i^2)`` regardless of whether the reads
are simulated one by one (reference) or folded into one draw (vectorized).
"""

import math

import numpy as np
import pytest

from repro.backend import (
    ReferenceEngine,
    VectorizedEngine,
    available_engines,
    get_engine,
    resolve_engine,
)
from repro.core import EncodedLinear
from repro.crossbar import (
    CrossbarConfig,
    GaussianReadNoise,
    ThermometerEncoder,
    BitSlicingEncoder,
    TiledCrossbar,
    folded_noisy_mvm,
    pulsed_mvm,
)
from repro.models import CrossbarMLP
from repro.sim import SimConfig, Session, apply_config, resolve_engine_name
from repro.tensor import Tensor
from repro.tensor.functional import softmax
from repro.tensor.random import RandomState

SEED = 1337

#: Kolmogorov-Smirnov critical coefficient at significance 0.001,
#: ``sqrt(-ln(0.001 / 2) / 2)``.
KS_COEFFICIENT = 1.949


def _ks_against_normal(samples, std):
    """One-sample KS statistic against ``N(0, std^2)`` and its critical value."""
    ordered = np.sort(np.ravel(samples))
    n = ordered.size
    cdf = 0.5 * (1.0 + np.vectorize(math.erf)(ordered / (std * math.sqrt(2.0))))
    statistic = max(
        np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n)
    )
    return statistic, KS_COEFFICIENT / math.sqrt(n)


def _ks_two_sample(first, second):
    """Two-sample KS statistic and its critical value."""
    first, second = np.sort(np.ravel(first)), np.sort(np.ravel(second))
    grid = np.concatenate([first, second])
    statistic = np.max(
        np.abs(
            np.searchsorted(first, grid, side="right") / first.size
            - np.searchsorted(second, grid, side="right") / second.size
        )
    )
    critical = KS_COEFFICIENT * math.sqrt((first.size + second.size) / (first.size * second.size))
    return statistic, critical


@pytest.fixture
def rng():
    return RandomState(SEED)


def _binary_weights(rng, out_features=24, in_features=48):
    return np.where(rng.uniform(size=(out_features, in_features)) < 0.5, -1.0, 1.0)


def _tiled(weights, noise, seed=SEED, **config_kwargs):
    config = CrossbarConfig(noise=noise, max_rows=16, max_cols=16, **config_kwargs)
    return TiledCrossbar(weights, config=config, rng=RandomState(seed))


class TestRegistry:
    def test_available_engines(self):
        assert {"reference", "vectorized"} <= set(available_engines())

    def test_get_engine_returns_singletons(self):
        assert isinstance(get_engine("reference"), ReferenceEngine)
        assert isinstance(get_engine("vectorized"), VectorizedEngine)
        assert get_engine("vectorized") is get_engine("vectorized")

    def test_unknown_engine_raises(self):
        with pytest.raises(KeyError):
            get_engine("quantum")

    def test_resolve_engine_passthrough(self):
        engine = ReferenceEngine()
        assert resolve_engine(engine) is engine
        assert resolve_engine("vectorized").name == "vectorized"
        assert resolve_engine(None).name == resolve_engine_name() == "vectorized"


class TestEmptyTrainGuard:
    def test_empty_pulse_train_raises_with_encoder_name(self, rng):
        class EmptyEncoder:
            def encode(self, values):
                from repro.crossbar.encoding import PulseTrain

                values = np.asarray(values, dtype=np.float64)
                return PulseTrain(
                    pulses=np.zeros((0,) + values.shape), weights=np.zeros(0)
                )

            def __repr__(self):
                return "EmptyEncoder()"

        crossbar = _tiled(_binary_weights(rng), GaussianReadNoise(1.0))
        with pytest.raises(ValueError, match="EmptyEncoder"):
            pulsed_mvm(crossbar, np.zeros((2, 48)), EmptyEncoder())

    def test_thermometer_encoder_rejects_non_positive_pulses(self):
        with pytest.raises(ValueError):
            ThermometerEncoder(0)
        with pytest.raises(ValueError):
            ThermometerEncoder(-3)


class TestNoiseFreeExactness:
    """Without noise both engines must agree with the ideal product exactly."""

    def test_both_engines_match_ideal_on_tiled_crossbar(self, rng):
        weights = _binary_weights(rng)
        crossbar = _tiled(weights, GaussianReadNoise(1.0))
        values = rng.choice(np.linspace(-1, 1, 9), size=(7, 48))
        expected = values @ weights.T
        for engine in ("reference", "vectorized"):
            out = pulsed_mvm(crossbar, values, ThermometerEncoder(8), add_noise=False, engine=engine)
            assert np.allclose(out, expected), engine


class TestTiledStatisticalEquivalence:
    """Pulsed-vs-folded equivalence on multi-tile crossbars, both engines."""

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_pulsed_matches_folded_on_tiled_crossbar(self, engine, rng):
        weights = _binary_weights(rng)
        sigma, pulses = 1.5, 8
        values = rng.choice(np.linspace(-1, 1, 9), size=(3000, 48))
        ideal = values @ weights.T

        crossbar = _tiled(weights, GaussianReadNoise(sigma))
        assert crossbar.num_tiles == 6  # 48/16 row-tiles x 24/16 col-tiles
        pulsed = pulsed_mvm(crossbar, values, ThermometerEncoder(pulses), engine=engine)

        # Folded closed form with the *tiled* read noise: three row-tiles add
        # their per-read variances, so one read carries sigma * sqrt(3).
        tiled_sigma = crossbar.read_noise_std()
        assert tiled_sigma == pytest.approx(sigma * np.sqrt(3))
        folded = folded_noisy_mvm(
            weights, values, num_pulses=pulses, sigma=tiled_sigma, rng=RandomState(SEED + 1)
        )

        pulsed_dev = (pulsed - ideal).reshape(-1)
        folded_dev = (folded - ideal).reshape(-1)
        assert abs(np.mean(pulsed_dev)) < 0.02
        assert np.std(pulsed_dev) == pytest.approx(np.std(folded_dev), rel=0.05)
        assert np.std(pulsed_dev) == pytest.approx(tiled_sigma / np.sqrt(pulses), rel=0.05)

    def test_engines_agree_under_shared_seed(self, rng):
        """Same crossbar seed => same noise distribution for both engines."""
        weights = _binary_weights(rng)
        values = rng.choice(np.linspace(-1, 1, 9), size=(4000, 48))
        ideal = values @ weights.T
        deviations = {}
        for engine in ("reference", "vectorized"):
            crossbar = _tiled(weights, GaussianReadNoise(2.0), seed=SEED)
            out = pulsed_mvm(crossbar, values, ThermometerEncoder(8), engine=engine)
            deviations[engine] = (out - ideal).reshape(-1)
        assert np.std(deviations["reference"]) == pytest.approx(
            np.std(deviations["vectorized"]), rel=0.05
        )
        assert abs(np.mean(deviations["reference"])) < 0.02
        assert abs(np.mean(deviations["vectorized"])) < 0.02

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_bit_slicing_accumulated_noise_on_tiles(self, engine, rng):
        """Weighted (non-uniform) trains: total std = read_std * ||w||_2."""
        weights = _binary_weights(rng)
        encoder = BitSlicingEncoder(4)
        crossbar = _tiled(weights, GaussianReadNoise(1.0))
        values = np.zeros((4000, 48))
        out = pulsed_mvm(crossbar, values, encoder, engine=engine)
        # 0.0 is not exactly representable with 4 bits; subtract the decoded
        # ideal so only the accumulated read noise remains.
        ideal = encoder.represented_values(values) @ weights.T
        expected_std = crossbar.read_noise_std() * np.sqrt(np.sum(encoder.pulse_weights**2))
        assert np.std(out - ideal) == pytest.approx(expected_std, rel=0.05)


class TestLayerNoisePaths:
    def test_folded_read_noise_statistics_match(self):
        shape = (20_000,)
        sigma, pulses = 3.0, 8
        reference = ReferenceEngine().folded_read_noise(shape, sigma, pulses, RandomState(0))
        vectorized = VectorizedEngine().folded_read_noise(shape, sigma, pulses, RandomState(0))
        expected = sigma / np.sqrt(pulses)
        assert np.std(reference) == pytest.approx(expected, rel=0.05)
        assert np.std(vectorized) == pytest.approx(expected, rel=0.05)

    def test_reference_folded_noise_fractional_pulses(self):
        noise = ReferenceEngine().folded_read_noise((20_000,), 2.0, 10.5, RandomState(0))
        assert np.std(noise) == pytest.approx(2.0 / np.sqrt(10.5), rel=0.05)

    def test_gbo_mixture_noise_engines_agree_under_shared_seed(self):
        """Both engines draw ``N(0, sum_k (alpha_k s_k)^2)`` from one seed.

        The mixture reads an all-zeros crossbar output, so it is the noise
        alone.  The reference mixes one draw per candidate and the vectorized engine
        scales a single draw by the folded deviation, so the samples differ;
        each must pass moment and KS tests against the closed form, and the
        two must pass a two-sample KS test against each other.
        """
        logits = Tensor(np.array([0.5, -0.2, 0.1]), requires_grad=True)
        scales = [1.0, 0.5, 0.25]
        shape = (200, 100)
        alphas = softmax(logits, axis=0)
        expected_std = float(np.sqrt(np.sum((alphas.data * np.asarray(scales)) ** 2)))
        outputs = {}
        for engine in (ReferenceEngine(), VectorizedEngine()):
            noise = engine.gbo_mixture_read(
                lambda: Tensor(np.zeros(shape)), alphas, scales, RandomState(3)
            )
            assert noise.shape == shape
            samples = noise.data.ravel()
            assert abs(samples.mean()) < 4.0 * expected_std / np.sqrt(samples.size)
            assert samples.std() == pytest.approx(expected_std, rel=0.02), engine.name
            statistic, critical = _ks_against_normal(samples, expected_std)
            assert statistic < critical, engine.name
            outputs[engine.name] = samples
        statistic, critical = _ks_two_sample(outputs["reference"], outputs["vectorized"])
        assert statistic < critical

    def test_gbo_mixture_noise_vectorized_backprops_to_logits(self):
        logits = Tensor(np.zeros(3), requires_grad=True)
        alphas = softmax(logits, axis=0)
        noise = VectorizedEngine().gbo_mixture_read(
            lambda: Tensor(np.zeros((4, 2))), alphas, [1.0, 0.5, 0.25], RandomState(1)
        )
        (noise**2).sum().backward()
        assert logits.grad is not None
        assert np.any(logits.grad != 0)

    def test_layer_engine_selection(self):
        layer = EncodedLinear(8, 4, rng=RandomState(0), weight_rng=RandomState(1))
        assert layer.engine.name == resolve_engine_name()
        with Session(layer, SimConfig(engine="reference")):
            assert isinstance(layer.engine, ReferenceEngine)
        assert layer.engine.name == resolve_engine_name()

    def test_layer_constructor_engine(self):
        layer = EncodedLinear(
            8, 4, rng=RandomState(0), weight_rng=RandomState(1), engine="reference"
        )
        assert layer.engine.name == "reference"

    def test_model_engine_pin_broadcast(self):
        model = CrossbarMLP(in_features=12, hidden_sizes=(8,), num_classes=3, rng=RandomState(2))
        apply_config(model, SimConfig(engine="reference"))
        assert all(layer.engine.name == "reference" for layer in model.encoded_layers())

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_noisy_layer_forward_std_matches_eq4(self, engine):
        layer = EncodedLinear(16, 8, rng=RandomState(5), weight_rng=RandomState(6))
        apply_config(layer, SimConfig(engine=engine, mode="noisy", noise_sigma=4.0))
        x = Tensor(np.zeros((3000, 16)))
        std = np.std(layer(x).data)
        assert std == pytest.approx(4.0 / np.sqrt(8), rel=0.05)

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_simulate_pulsed_forward_matches_folded_per_engine(self, engine):
        sigma = 1.0
        layer = EncodedLinear(16, 8, rng=RandomState(7), weight_rng=RandomState(8))
        apply_config(layer, SimConfig(mode="noisy", noise_sigma=sigma))
        rng = RandomState(9)
        x = rng.uniform(-1, 1, size=(400, 16))
        folded = layer(Tensor(x)).data
        config = CrossbarConfig(noise=GaussianReadNoise(sigma))
        simulated = layer.simulate_pulsed_forward(x, crossbar_config=config, engine=engine)
        quantised = np.round((np.clip(x, -1, 1) + 1) * 0.5 * 8) / 8 * 2 - 1
        ideal = quantised @ np.sign(layer.weight.data).T
        assert np.std(folded - ideal) == pytest.approx(np.std(simulated - ideal), rel=0.15)
