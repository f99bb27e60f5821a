"""Equivalence tests for the stacked-draw GBO noise plan.

``SimulationEngine.plan_gbo_noise`` batches every encoded layer's Eq. 5
mixture draw for one optimisation step into a single RNG materialisation.
The whole design rests on one numpy fact — a ``Generator`` produces the same
values whether ``n`` normals come from one call or several consecutive calls
— so these tests pin that fact directly, check both engines realise the plan
identically, and require the planned ``GBOTrainer`` path to be bit-identical
to the historical per-layer draws.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import get_engine
from repro.core import GBOConfig, GBOTrainer
from repro.core.search_space import PulseScalingSpace
from repro.data import DataLoader, TensorDataset
from repro.models import CrossbarMLP
from repro.sim import SimConfig, apply_config
from repro.tensor.random import PlannedNormalStream, RandomState
from repro.utils.seed import seed_everything

ENGINES = ["vectorized", "reference"]


class TestPlanPrimitive:
    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_plan_bit_equals_sequential_draws(self, engine_name):
        """The batched plan consumes the RNG exactly like per-layer draws."""
        counts = [96, 0, 40, 7]
        buffers = get_engine(engine_name).plan_gbo_noise(counts, RandomState(402))
        live = RandomState(402)
        for count, buffer in zip(counts, buffers):
            assert buffer.shape == (count,)
            np.testing.assert_array_equal(buffer, live.normal(0.0, 1.0, size=count))

    def test_engines_realise_identical_plans(self):
        plans = [
            get_engine(name).plan_gbo_noise([64, 13, 0, 128], RandomState(31))
            for name in ENGINES
        ]
        for vec_buffer, ref_buffer in zip(*plans):
            np.testing.assert_array_equal(vec_buffer, ref_buffer)

    def test_all_zero_counts_leave_rng_untouched(self):
        rng = RandomState(9)
        buffers = get_engine("vectorized").plan_gbo_noise([0, 0], rng)
        assert all(buffer.size == 0 for buffer in buffers)
        # The stream was not consumed: the next draw equals a fresh one.
        np.testing.assert_array_equal(
            rng.normal(size=4), RandomState(9).normal(size=4)
        )


class TestPlannedNormalStream:
    def test_serves_multi_dim_draws_bit_identically(self):
        """Slicing a planned buffer equals drawing live, call for call."""
        stream = PlannedNormalStream(RandomState(55).normal(0.0, 1.0, size=60))
        live = RandomState(55)
        for size in [(7, 4), 12, (2, 2, 5)]:
            np.testing.assert_array_equal(
                stream.normal(0.0, 1.0, size=size), live.normal(0.0, 1.0, size=size)
            )
        assert stream.remaining == 0

    def test_scale_and_loc_applied(self):
        stream = PlannedNormalStream(np.array([1.0, -2.0]))
        np.testing.assert_allclose(stream.normal(10.0, 3.0, size=2), [13.0, 4.0])

    def test_exhaustion_raises(self):
        stream = PlannedNormalStream(np.zeros(3))
        stream.normal(size=2)
        with pytest.raises(RuntimeError, match="exhausted"):
            stream.normal(size=2)


def _golden_setup():
    seed_everything(4321)
    rng = RandomState(7)
    inputs = np.tanh(rng.normal(size=(64, 24)))
    labels = rng.randint(0, 4, size=64)
    loader = DataLoader(
        TensorDataset(inputs, labels), batch_size=16, shuffle=True, rng=RandomState(11)
    )
    model = CrossbarMLP(
        in_features=24, hidden_sizes=(16, 16), num_classes=4, rng=RandomState(5)
    )
    apply_config(model, SimConfig(noise_sigma=3.0))
    for index, layer in enumerate(model.encoded_layers()):
        layer.noise_rng = RandomState(1000 + index)
    return model, loader


def _train(engine_name, plan_noise, shared_rng=False, sigma=3.0):
    model, loader = _golden_setup()
    apply_config(model, SimConfig(noise_sigma=sigma))
    if shared_rng:
        shared = RandomState(77)
        for layer in model.encoded_layers():
            layer.noise_rng = shared
    trainer = GBOTrainer(
        model,
        GBOConfig(
            space=PulseScalingSpace(),
            epochs=2,
            learning_rate=0.1,
            gamma=2e-3,
            plan_noise=plan_noise,
        ),
        sim=SimConfig(engine=engine_name),
    )
    return trainer.train(loader)


class TestTrainerEquivalence:
    """plan_noise=True must be invisible: same samples, same schedule."""

    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_planned_training_bit_identical(self, engine_name):
        planned = _train(engine_name, plan_noise=True)
        legacy = _train(engine_name, plan_noise=False)
        assert planned.schedule.as_list() == legacy.schedule.as_list()
        for planned_logits, legacy_logits in zip(planned.logits, legacy.logits):
            np.testing.assert_array_equal(planned_logits, legacy_logits)
        assert [r["loss"] for r in planned.history] == [r["loss"] for r in legacy.history]

    def test_planned_training_with_shared_rng(self):
        """Layers sharing one generator interleave draws in forward order."""
        planned = _train("vectorized", plan_noise=True, shared_rng=True)
        legacy = _train("vectorized", plan_noise=False, shared_rng=True)
        assert planned.schedule.as_list() == legacy.schedule.as_list()
        assert [r["loss"] for r in planned.history] == [r["loss"] for r in legacy.history]

    def test_zero_sigma_layers_plan_zero_draws(self):
        """sigma == 0 skips the mixture; the plan must not consume the RNG."""
        planned = _train("vectorized", plan_noise=True, sigma=0.0)
        legacy = _train("vectorized", plan_noise=False, sigma=0.0)
        assert [r["loss"] for r in planned.history] == [r["loss"] for r in legacy.history]

    def test_noise_rngs_restored_after_training(self):
        model, loader = _golden_setup()
        rngs = [layer.noise_rng for layer in model.encoded_layers()]
        GBOTrainer(
            model,
            GBOConfig(space=PulseScalingSpace(), epochs=1, learning_rate=0.1),
            sim=SimConfig(engine="vectorized"),
        ).train(loader)
        assert [layer.noise_rng for layer in model.encoded_layers()] == rngs
