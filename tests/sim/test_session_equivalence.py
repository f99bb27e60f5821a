"""Acceptance tests for configuring a model through ``SimConfig`` + ``Session``.

The contract: a :class:`Session` applies a config atomically and restores
every layer's previous state on exit, an engine pinned through a config is
the engine that actually runs (and only within the pin's scope), and a
scenario spec's identity incorporates its sim config without moving the
hashes of default specs.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.backend.engine as engine_registry
from repro.backend import VectorizedEngine
from repro.models import CrossbarMLP
from repro.sim import SimConfig, Session, apply_config
from repro.tensor import Tensor
from repro.tensor.random import RandomState
from repro.training.evaluate import noisy_accuracy


def _model():
    return CrossbarMLP(in_features=24, hidden_sizes=(16, 16), num_classes=4, rng=RandomState(5))


def _batch():
    return RandomState(3).uniform(-1.0, 1.0, size=(8, 24))


def _loader():
    from repro.data import DataLoader, TensorDataset

    rng = RandomState(7)
    inputs = np.tanh(rng.normal(size=(48, 24)))
    labels = rng.randint(0, 4, size=48)
    return DataLoader(TensorDataset(inputs, labels), batch_size=16, shuffle=False)


class TestSessionMechanics:
    def test_apply_and_restore(self):
        model = _model()
        layer = model.encoded_layers()[0]
        config = SimConfig(
            engine="reference", mode="noisy", pulses=12, noise_sigma=2.0,
            sigma_relative_to_fan_in=True, pla_mode="nearest",
        )
        with Session(model, config):
            assert layer.mode == "noisy"
            assert layer.num_pulses == 12
            assert layer.noise_sigma == 2.0
            assert layer.sigma_relative_to_fan_in is True
            assert layer.pla_mode == "nearest"
            assert layer.engine.name == "reference"
        assert layer.mode == "clean"
        assert layer.num_pulses == 8
        assert layer.noise_sigma == 0.0
        assert layer.sigma_relative_to_fan_in is False
        assert layer.pla_mode == "toward_extremes"
        assert layer._engine is None  # unpinned again

    def test_restores_on_exception(self):
        model = _model()
        with pytest.raises(RuntimeError):
            with Session(model, SimConfig(mode="noisy", noise_sigma=1.0)):
                raise RuntimeError("boom")
        assert all(l.mode == "clean" and l.noise_sigma == 0.0 for l in model.encoded_layers())

    @pytest.mark.parametrize(
        "changes", [{"pulses": (8, 8, 8)}, {"pulses": 10, "noise_sigma": (3.0, 0.0, 1.0)}]
    )
    def test_apply_is_atomic_on_bad_schedule(self, changes):
        """A config that fails validation must not leave partial state."""
        model = _model()
        # the model has 2 layers
        bad = SimConfig(mode="noisy", noise_sigma=3.0).with_changes(**changes)
        with pytest.raises(ValueError, match="entries but the target exposes 2"):
            apply_config(model, bad)
        assert all(
            l.mode == "clean" and l.noise_sigma == 0.0 and l.num_pulses == 8
            for l in model.encoded_layers()
        )

    def test_apply_is_atomic_on_gbo_without_logits(self):
        model = _model()
        with pytest.raises(ValueError):
            apply_config(model, SimConfig(mode="gbo", noise_sigma=1.0))
        assert all(l.mode == "clean" and l.noise_sigma == 0.0 for l in model.encoded_layers())

    def test_apply_is_atomic_on_unknown_engine(self):
        model = _model()
        with pytest.raises(KeyError):
            apply_config(model, SimConfig(engine="warpdrive", noise_sigma=1.0))
        assert all(l.noise_sigma == 0.0 for l in model.encoded_layers())

    def test_single_layer_target(self):
        model = _model()
        target = model.encoded_layers()[1]
        with Session(target, SimConfig(mode="noisy", pulses=10, noise_sigma=1.5)):
            assert target.mode == "noisy" and target.num_pulses == 10
            others = [l for l in model.encoded_layers() if l is not target]
            assert all(l.mode == "clean" for l in others)
        assert target.mode == "clean" and target.num_pulses == 8

    def test_seed_policy(self):
        model = _model()
        with Session(model, SimConfig(mode="noisy", noise_sigma=2.0, seed=99)):
            first = model(Tensor(_batch())).data.copy()
        with Session(model, SimConfig(mode="noisy", noise_sigma=2.0, seed=99)):
            second = model(Tensor(_batch())).data.copy()
        np.testing.assert_array_equal(first, second)


class TestEnginePins:
    """A config's engine pin is the engine that runs, within the pin's scope."""

    def test_noisy_accuracy_runs_the_pinned_engine(self, monkeypatch):
        class CountingEngine(VectorizedEngine):
            name = "counting-eval"

            def __init__(self):
                self.folded_reads = 0

            def folded_read_noise(self, shape, sigma, num_pulses, rng):
                self.folded_reads += 1
                return super().folded_read_noise(shape, sigma, num_pulses, rng)

        engine = CountingEngine()
        monkeypatch.setitem(engine_registry._REGISTRY, engine.name, engine)
        model = _model()
        accuracy = noisy_accuracy(
            model, _loader(), SimConfig(engine=engine.name, mode="noisy", noise_sigma=2.0)
        )
        assert 0.0 <= accuracy <= 100.0
        assert engine.folded_reads > 0
        # The pin was session-scoped: the layers are unpinned again.
        assert all(l._engine is None for l in model.encoded_layers())

    def test_profile_backend_pins_the_model_engine(self):
        from repro.experiments.common import build_model
        from repro.experiments.profiles import get_profile

        model = build_model(get_profile("smoke").with_overrides(backend="reference"))
        assert [l.engine.name for l in model.encoded_layers()] == (
            ["reference"] * model.num_encoded_layers()
        )


class TestScenarioSpecSimIdentity:
    """Spec identity incorporates the config hash without moving default hashes."""

    def test_default_grids_have_no_sim_payload(self):
        from repro.experiments.profiles import get_profile
        from repro.experiments.table1 import table1_grid

        for spec in table1_grid(get_profile("smoke")):
            assert "sim" not in spec.as_dict()
            assert spec.sim == ()

    def test_explicit_sim_config_extends_identity(self):
        from repro.experiments.runner.spec import ScenarioSpec

        default = ScenarioSpec.create("table1", method="Baseline", sigma=4.0, pulses=8)
        pinned = ScenarioSpec.create(
            "table1", method="Baseline", sigma=4.0, pulses=8,
            sim=SimConfig(pla_mode="nearest"),
        )
        assert "sim" in pinned.as_dict()
        assert pinned.hash != default.hash
        clone = ScenarioSpec.from_dict(pinned.as_dict())
        assert clone == pinned and clone.hash == pinned.hash
        assert clone.sim_config() == SimConfig(pla_mode="nearest")

    def test_sim_engine_conflict_rejected(self):
        from repro.experiments.runner.spec import ScenarioSpec

        with pytest.raises(ValueError):
            ScenarioSpec.create(
                "table1", engine="vectorized", sim=SimConfig(engine="reference")
            )

    def test_pin_grid_engine_updates_attached_sim_payload(self):
        from repro.experiments.registry import pin_grid_engine
        from repro.experiments.runner.spec import ScenarioGrid, ScenarioSpec

        spec = ScenarioSpec.create(
            "table1", method="Baseline", sigma=4.0, pulses=8,
            sim=SimConfig(engine="vectorized", pla_mode="nearest"),
        )
        pinned = next(iter(pin_grid_engine(ScenarioGrid(name="g", specs=(spec,)), "reference")))
        assert pinned.engine == "reference"
        assert pinned.sim_config().engine == "reference"
        assert pinned.sim_config().pla_mode == "nearest"

    def test_derived_config_follows_spec_engine(self):
        from repro.experiments.profiles import get_profile
        from repro.experiments.table1 import table1_grid

        profile = get_profile("smoke")
        grid = table1_grid(profile, engine="reference")
        for spec in grid:
            config = spec.sim_config(profile)
            assert config.engine == "reference"
            assert config.mode == "clean"
