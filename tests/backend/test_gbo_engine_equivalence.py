"""GBO engine-equivalence tests: the analogue of ``test_engines.py`` for the
Eq. 5 candidate-mixture primitive.

The reference engine evaluates the GBO mixture literally — one ideal crossbar
read per candidate encoding, each with its own accumulated noise draw — while
the vectorized engine folds all of Omega into a single read plus one stacked
noise draw.  Because a stacked ``(k, *shape)`` Gaussian sample consumes the
generator stream exactly like ``k`` sequential draws, two GBO trainings
started from the same seed must produce matching logits, alphas and selected
schedules on both engines (up to floating-point summation order).
"""

import numpy as np
import pytest

import repro.backend.engine as engine_registry
from repro.backend import ReferenceEngine, VectorizedEngine, get_engine
from repro.core import GBOConfig, GBOTrainer
from repro.core.encoder_layer import EncodedLinear
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


def _run_gbo(engine_name, sigma=3.0, epochs=2):
    """One full GBO run from a fixed seed with every stochastic source pinned."""
    seed_everything(SEED)
    loader = _toy_loader(RandomState(7))
    model = CrossbarMLP(in_features=24, hidden_sizes=(32, 32), num_classes=4, rng=RandomState(5))
    apply_config(model, SimConfig(noise_sigma=sigma))
    # Pin the layers' noise generators so both engines consume an identical,
    # layer-private stream (the global default rng is shared state).
    for index, layer in enumerate(model.encoded_layers()):
        layer.noise_rng = RandomState(SEED + index)
    trainer = GBOTrainer(
        model,
        GBOConfig(epochs=epochs, learning_rate=0.05, gamma=1e-3),
        sim=SimConfig(engine=engine_name),
    )
    result = trainer.train(loader)
    return model, result


class TestGBOEngineEquivalence:
    def test_engines_produce_identical_training_outcome(self):
        _, reference = _run_gbo("reference")
        _, vectorized = _run_gbo("vectorized")

        assert reference.schedule.as_list() == vectorized.schedule.as_list()
        for ref_logits, vec_logits in zip(reference.logits, vectorized.logits):
            np.testing.assert_allclose(ref_logits, vec_logits, rtol=1e-7, atol=1e-9)
        for ref_alphas, vec_alphas in zip(reference.alphas, vectorized.alphas):
            np.testing.assert_allclose(ref_alphas, vec_alphas, rtol=1e-7, atol=1e-9)
        # The loss trajectories must match step by step, not just the endpoint.
        assert len(reference.history) == len(vectorized.history)
        for ref_record, vec_record in zip(reference.history, vectorized.history):
            assert ref_record["loss"] == pytest.approx(vec_record["loss"], rel=1e-7)

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
        # Every layer's GBO forward went through the pinned engine...
        assert engine.mixture_reads == len(loader) * len(model.encoded_layers())
        # ...and the pin did not leak into post-training evaluation.
        assert [layer.engine.name for layer in model.encoded_layers()] == before

    def test_gbo_mixture_read_engines_agree_under_shared_seed(self):
        """Single-primitive check: same rng stream => near-identical mixtures."""
        logits = Tensor(np.array([0.4, -0.3, 0.2, 0.0]), requires_grad=True)
        scales = [2.0, 1.0, 0.5, 0.25]
        read_value = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        outputs = {}
        for engine in (ReferenceEngine(), VectorizedEngine()):
            alphas = softmax(logits, axis=0)
            mixed = engine.gbo_mixture_read(
                lambda: Tensor(read_value.copy()), alphas, scales, RandomState(17)
            )
            assert mixed.shape == read_value.shape
            outputs[engine.name] = mixed.data
        np.testing.assert_allclose(outputs["reference"], outputs["vectorized"], rtol=1e-12, atol=1e-12)

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
