"""GBO engine-equivalence tests: the analogue of ``test_engines.py`` for the
Eq. 5 candidate-mixture primitive.

The reference engine evaluates the GBO mixture literally — one ideal crossbar
read per candidate encoding, each with its own accumulated noise draw — while
the vectorized engine folds all of Omega into a single read plus one
Gaussian draw: ``sum_k alpha_k s_k eps_k`` over independent standard normals
is exactly ``N(0, sum_k (alpha_k s_k)^2)``.  The two engines therefore draw
different samples from the same seed, and the contract between them is
statistical:

* the mixture has the closed-form distribution on both engines (moments
  here; moments and KS in ``test_engines.py``);
* the expected logit gradient over many seeds is the same — the folded
  gradient is the reference gradient's conditional expectation given the
  realised noise, so it keeps the mean and lowers the variance;
* whole GBO trainings over several noise seeds end with agreeing alphas.
"""

import numpy as np
import pytest

import repro.backend.engine as engine_registry
from repro.backend import ReferenceEngine, VectorizedEngine, get_engine
from repro.core import GBOConfig, GBOTrainer
from repro.core.encoder_layer import EncodedLinear
from repro.core.search_space import PulseScalingSpace
from repro.data import DataLoader, TensorDataset
from repro.models import CrossbarMLP
from repro.sim import SimConfig, apply_config
from repro.tensor import Tensor
from repro.tensor.functional import softmax
from repro.tensor.random import RandomState
from repro.utils.seed import seed_everything

SEED = 20220314


def _toy_loader(rng):
    """A tiny learnable 4-class problem with a deterministic loader order."""
    num_samples, features, classes = 96, 24, 4
    centroids = rng.normal(scale=2.0, size=(classes, features))
    labels = rng.randint(0, classes, size=num_samples)
    inputs = np.tanh(centroids[labels] + rng.normal(scale=0.3, size=(num_samples, features)))
    dataset = TensorDataset(inputs, labels)
    return DataLoader(dataset, batch_size=32, shuffle=True, rng=RandomState(11))


#: Noise seeds of the training-level check; each run seeds its two layers
#: with ``seed`` and ``seed + 1``, so the seeds step by 2.
TRAINING_NOISE_SEEDS = range(SEED, SEED + 8, 2)
#: Seed-mean final alphas of the two engines agree to this absolute
#: tolerance (alphas start at 1/7 ~ 0.143; the measured gap was 0.08-0.10
#: over five seed sets).  It is loose because Adam scales each logit's step
#: by its gradient's RMS: the folded gradient has the same mean but a lower
#: variance, so the vectorized run takes steadier steps the same way.
TRAINING_ALPHA_ATOL = 0.12
#: ... and the alphas drift from uniform in the same direction (measured
#: correlation 0.75-0.77 across those seed sets).
TRAINING_DRIFT_MIN_CORRELATION = 0.5
#: Mean training loss of the two engines agrees to this relative tolerance.
TRAINING_MEAN_LOSS_RTOL = 0.02


def _run_gbo(engine_name, sigma=3.0, epochs=2, noise_seed=SEED):
    """One full GBO run from a fixed seed with every stochastic source pinned."""
    seed_everything(SEED)
    loader = _toy_loader(RandomState(7))
    model = CrossbarMLP(in_features=24, hidden_sizes=(32, 32), num_classes=4, rng=RandomState(5))
    apply_config(model, SimConfig(noise_sigma=sigma))
    # Pin the layers' noise generators to layer-private streams (the global
    # default rng is shared state).
    for index, layer in enumerate(model.encoded_layers()):
        layer.noise_rng = RandomState(noise_seed + index)
    trainer = GBOTrainer(
        model,
        GBOConfig(epochs=epochs, learning_rate=0.05, gamma=1e-3),
        sim=SimConfig(engine=engine_name),
    )
    result = trainer.train(loader)
    return model, result


class TestGBOEngineEquivalence:
    def test_engines_agree_on_training_outcome_across_seeds(self):
        results = {
            name: [_run_gbo(name, epochs=4, noise_seed=seed)[1] for seed in TRAINING_NOISE_SEEDS]
            for name in ("reference", "vectorized")
        }
        mean_alphas = {
            name: np.mean([run.alphas for run in runs], axis=0) for name, runs in results.items()
        }
        np.testing.assert_allclose(
            mean_alphas["reference"], mean_alphas["vectorized"], atol=TRAINING_ALPHA_ATOL
        )
        uniform = 1.0 / PulseScalingSpace().num_options
        drift_ref = (mean_alphas["reference"] - uniform).ravel()
        drift_vec = (mean_alphas["vectorized"] - uniform).ravel()
        assert np.corrcoef(drift_ref, drift_vec)[0, 1] > TRAINING_DRIFT_MIN_CORRELATION
        mean_losses = {
            name: np.mean([[record["loss"] for record in run.history] for run in runs])
            for name, runs in results.items()
        }
        assert mean_losses["vectorized"] == pytest.approx(
            mean_losses["reference"], rel=TRAINING_MEAN_LOSS_RTOL
        )

    def test_zero_sigma_training_skips_the_mixture(self):
        """sigma == 0 routes around the mixture (and the folded sqrt(0)):
        training draws no noise and its logit gradients stay finite."""
        model, result = _run_gbo("vectorized", sigma=0.0)
        for index, layer in enumerate(model.encoded_layers()):
            untouched = RandomState(SEED + index).normal(size=4)
            np.testing.assert_array_equal(layer.noise_rng.normal(size=4), untouched)
        assert all(np.all(np.isfinite(logits)) for logits in result.logits)

    def test_trainer_engine_pin_is_scoped_to_training(self, monkeypatch):
        """GBOTrainer(sim=SimConfig(engine=...)) pins the engine during
        training and restores each layer's previous engine afterwards."""

        class CountingEngine(VectorizedEngine):
            name = "counting"

            def __init__(self):
                self.mixture_reads = 0

            def gbo_mixture_read(self, read_op, alphas, scales, rng):
                self.mixture_reads += 1
                return super().gbo_mixture_read(read_op, alphas, scales, rng)

        seed_everything(SEED)
        loader = _toy_loader(RandomState(7))
        model = CrossbarMLP(in_features=24, hidden_sizes=(32,), num_classes=4, rng=RandomState(5))
        apply_config(model, SimConfig(noise_sigma=2.0))
        before = [layer.engine.name for layer in model.encoded_layers()]
        engine = CountingEngine()
        monkeypatch.setitem(engine_registry._REGISTRY, engine.name, engine)
        GBOTrainer(
            model, GBOConfig(epochs=1, learning_rate=0.05), sim=SimConfig(engine=engine.name)
        ).train(loader)
        # Every layer's GBO forward went through the pinned engine: one per
        # step, plus the one-sample probe that sizes the prepared draws...
        assert engine.mixture_reads == (len(loader) + 1) * len(model.encoded_layers())
        # ...and the pin did not leak into post-training evaluation.
        assert [layer.engine.name for layer in model.encoded_layers()] == before

    def test_gbo_mixture_read_engines_agree_under_shared_seed(self):
        """Both engines return ``read + N(0, sum_k (alpha_k s_k)^2)``."""
        logits = Tensor(np.array([0.4, -0.3, 0.2, 0.0]), requires_grad=True)
        scales = [2.0, 1.0, 0.5, 0.25]
        read_value = np.linspace(-1.0, 1.0, 20_000).reshape(200, 100)
        alphas = softmax(logits, axis=0)
        expected_std = float(np.sqrt(np.sum((alphas.data * np.asarray(scales)) ** 2)))
        for engine in (ReferenceEngine(), VectorizedEngine()):
            mixed = engine.gbo_mixture_read(
                lambda: Tensor(read_value.copy()), alphas, scales, RandomState(17)
            )
            assert mixed.shape == read_value.shape
            residual = mixed.data - read_value
            assert abs(residual.mean()) < 4.0 * expected_std / np.sqrt(residual.size)
            assert residual.std() == pytest.approx(expected_std, rel=0.02), engine.name

    def test_gbo_mixture_noise_expected_gradient_matches_reference(self):
        """Per-seed logit gradients differ between engines; their means agree.

        With ``L = mean(noise^2)``, ``E[L] = sum_k (alpha_k s_k)^2`` on both
        engines, so over many seeds each engine's mean gradient must match
        the closed form, and the two means each other, within five standard
        errors.
        """
        lam = np.array([0.4, -0.3, 0.2, 0.0, 0.1, -0.5, 0.3])
        scales = 3.0 / np.sqrt(np.asarray(PulseScalingSpace().pulse_counts, dtype=float))
        num_seeds = 256
        means, errors = {}, {}
        for engine in (ReferenceEngine(), VectorizedEngine()):
            grads = []
            for seed in range(num_seeds):
                logits = Tensor(lam, requires_grad=True)
                noise = engine.gbo_mixture_read(
                    lambda: Tensor(np.zeros(256)), softmax(logits, axis=0), scales,
                    RandomState(seed),
                )
                (noise**2).mean().backward()
                grads.append(logits.grad)
            grads = np.array(grads)
            means[engine.name] = grads.mean(axis=0)
            errors[engine.name] = grads.std(axis=0) / np.sqrt(num_seeds)

        alphas = np.exp(lam) / np.exp(lam).sum()
        weighted = 2.0 * alphas**2 * scales**2
        expected = weighted - alphas * weighted.sum()  # softmax chain rule
        for name in means:
            assert np.all(np.abs(means[name] - expected) <= 5.0 * errors[name]), name
        combined = np.sqrt(errors["reference"] ** 2 + errors["vectorized"] ** 2)
        assert np.all(np.abs(means["reference"] - means["vectorized"]) <= 5.0 * combined)

    def test_gbo_mixture_read_backprops_to_logits(self):
        for engine_name in ("reference", "vectorized"):
            logits = Tensor(np.zeros(3), requires_grad=True)
            alphas = softmax(logits, axis=0)
            mixed = get_engine(engine_name).gbo_mixture_read(
                lambda: Tensor(np.ones((4, 2))), alphas, [1.0, 0.5, 0.25], RandomState(1)
            )
            (mixed**2).sum().backward()
            assert logits.grad is not None, engine_name
            assert np.any(logits.grad != 0), engine_name

    def test_reference_performs_one_read_per_candidate(self):
        """The oracle must execute the literal per-candidate reads of Eq. 5."""
        calls = []

        def read_op():
            calls.append(1)
            return Tensor(np.zeros((2, 2)))

        logits = Tensor(np.zeros(5), requires_grad=True)
        ReferenceEngine().gbo_mixture_read(
            read_op, softmax(logits, axis=0), [1.0] * 5, RandomState(0)
        )
        assert len(calls) == 5

        calls.clear()
        VectorizedEngine().gbo_mixture_read(
            read_op, softmax(logits, axis=0), [1.0] * 5, RandomState(0)
        )
        assert len(calls) == 1

    def test_gbo_forward_uses_layer_engine(self, monkeypatch):
        """An EncodedLinear in gbo mode routes through gbo_mixture_read."""

        class CountingEngine(VectorizedEngine):
            name = "counting"

            def __init__(self):
                self.mixture_reads = 0

            def gbo_mixture_read(self, read_op, alphas, scales, rng):
                self.mixture_reads += 1
                return super().gbo_mixture_read(read_op, alphas, scales, rng)

        engine = CountingEngine()
        monkeypatch.setitem(engine_registry._REGISTRY, engine.name, engine)
        layer = EncodedLinear(8, 4, rng=RandomState(0), weight_rng=RandomState(1))
        from repro.core.search_space import PulseScalingSpace

        layer.enable_gbo(PulseScalingSpace())
        apply_config(layer, SimConfig(engine=engine.name, mode="gbo", noise_sigma=2.0))
        layer(Tensor(np.zeros((3, 8))))
        assert engine.mixture_reads == 1
