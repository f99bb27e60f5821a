"""Tests for :class:`repro.sim.SimConfig`: identity, serialisation, rules.

Covers the PR's contract for the config value itself: the content hash is
stable across processes (it keys stores and seeds), JSON round-trips are
bit-identical, validation is strict, and the one engine-resolution
precedence rule behaves as documented.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.core.schedule import PulseSchedule
from repro.sim import SimConfig, engine_name, resolve_engine_name


REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"
)


class TestIdentity:
    def test_equal_configs_share_hash(self):
        a = SimConfig(engine="reference", mode="noisy", pulses=(8, 6), noise_sigma=3.0)
        b = SimConfig(engine="reference", mode="noisy", pulses=[8, 6], noise_sigma=3.0)
        assert a == b
        assert a.hash == b.hash

    def test_any_field_changes_hash(self):
        base = SimConfig(mode="noisy", noise_sigma=3.0, pulses=8)
        for changed in (
            base.with_changes(engine="reference"),
            base.with_changes(mode="clean"),
            base.with_changes(pulses=10),
            base.with_changes(noise_sigma=4.0),
            base.with_changes(sigma_relative_to_fan_in=True),
            base.with_changes(pla_mode="nearest"),
            base.with_changes(seed=7),
            base.with_changes(dtype="float32"),
        ):
            assert changed.hash != base.hash

    def test_hash_is_stable_across_processes(self):
        """The hash must be a pure function of content, not of the process.

        A fresh interpreter computing the same config must agree — this is
        what lets worker processes and resumed runs share store entries.
        """
        config = SimConfig(
            engine="vectorized",
            mode="noisy",
            pulses=(10, 12, 14),
            noise_sigma=5.5,
            sigma_relative_to_fan_in=False,
            pla_mode="toward_extremes",
            seed=2022,
        )
        code = (
            "from repro.sim import SimConfig\n"
            f"print(SimConfig.from_json({config.to_json()!r}).hash)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == config.hash

    def test_json_round_trip_is_bit_identical(self):
        config = SimConfig(
            engine="reference", mode="gbo", pulses=8, noise_sigma=2.25,
            sigma_relative_to_fan_in=True, pla_mode="nearest", seed=11,
        )
        clone = SimConfig.from_json(config.to_json())
        assert clone == config
        assert clone.hash == config.hash
        assert clone.to_json() == config.to_json()

    @pytest.mark.parametrize("noise_sigma", [1.0, (0.0, 6.0, 0.5)])
    def test_dict_round_trip(self, noise_sigma):
        config = SimConfig(mode="noisy", pulses=(8, 6, 4), noise_sigma=noise_sigma)
        assert SimConfig.from_dict(config.as_dict()) == config
        clone = SimConfig.from_json(config.to_json())
        assert clone == config and clone.hash == config.hash

    def test_per_layer_sigma_is_a_list_on_the_wire(self):
        config = SimConfig(noise_sigma=[0, 6, 0.5])
        assert config.noise_sigma == (0.0, 6.0, 0.5)
        assert config.as_dict()["noise_sigma"] == [0.0, 6.0, 0.5]
        assert SimConfig(noise_sigma=6).as_dict()["noise_sigma"] == 6.0
        assert config.hash != config.with_changes(noise_sigma=(0.0, 6.0, 0.25)).hash


class TestCanonicalisation:
    def test_pulse_schedule_coerces_to_tuple(self):
        config = SimConfig(pulses=PulseSchedule([12, 16]))
        assert config.pulses == (12, 16)

    def test_engine_instance_coerces_to_name(self):
        from repro.backend import get_engine

        config = SimConfig(engine=get_engine("reference"))
        assert config.engine == "reference"

    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(mode="bogus")
        with pytest.raises(ValueError):
            SimConfig(pulses=0)
        with pytest.raises(ValueError):
            SimConfig(pulses=(8, 0))
        with pytest.raises(ValueError):
            SimConfig(noise_sigma=-1.0)
        with pytest.raises(ValueError):
            SimConfig(noise_sigma=(2.0, -1.0))
        with pytest.raises(ValueError):
            SimConfig(noise_sigma=())
        with pytest.raises(ValueError):
            SimConfig(pla_mode="sideways")
        with pytest.raises(TypeError):
            SimConfig(engine=object())

    def test_engine_name_helper(self):
        assert engine_name(None) is None
        assert engine_name("vectorized") == "vectorized"


class TestEngineResolutionRule:
    """One documented rule: pin > profile backend > "vectorized"."""

    def test_explicit_pin_wins(self):
        from repro.experiments.profiles import get_profile

        profile = get_profile("fast").with_overrides(backend="vectorized")
        assert resolve_engine_name("reference", profile) == "reference"

    def test_profile_backend_beats_the_default(self):
        from repro.experiments.profiles import get_profile

        profile = get_profile("fast").with_overrides(backend="reference")
        assert resolve_engine_name(None, profile) == "reference"

    def test_vectorized_is_last(self):
        assert resolve_engine_name(None, None) == "vectorized"

    def test_for_profile_resolves_concretely(self):
        from repro.experiments.profiles import get_profile

        config = SimConfig.for_profile(get_profile("fast"), mode="noisy", noise_sigma=5.0)
        assert config.engine == "vectorized"
        assert config.mode == "noisy"


class TestDtypeField:
    """``dtype`` joins the hashed identity only when set.

    The default (``dtype=None``, float64 compute) must hash exactly as it
    did before the field existed — store keys, seeds and golden artifacts
    all depend on it.
    """

    def test_default_dtype_is_none_and_absent_from_payload(self):
        config = SimConfig(mode="noisy", noise_sigma=3.0, pulses=8)
        assert config.dtype is None
        assert "dtype" not in config.as_dict()

    def test_set_dtype_enters_payload_and_round_trips(self):
        config = SimConfig(mode="noisy", noise_sigma=3.0, pulses=8, dtype="float32")
        assert config.as_dict()["dtype"] == "float32"
        clone = SimConfig.from_json(config.to_json())
        assert clone.dtype == "float32"
        assert clone.hash == config.hash

    def test_dtype_canonicalises(self):
        import numpy as np

        assert SimConfig(dtype=np.float32).dtype == "float32"
        assert SimConfig(dtype=np.dtype(np.float64)).dtype == "float64"

    def test_dtype_validation(self):
        with pytest.raises(ValueError):
            SimConfig(dtype="float16")
        with pytest.raises((TypeError, ValueError)):
            SimConfig(dtype="bogus")

    def test_session_applies_and_restores_dtype(self):
        from repro.models import CrossbarMLP
        from repro.sim import Session
        from repro.tensor import compute_dtype_name
        from repro.tensor.random import RandomState

        model = CrossbarMLP(in_features=8, hidden_sizes=(4,), num_classes=2, rng=RandomState(0))
        config = SimConfig(mode="noisy", noise_sigma=1.0, pulses=8, dtype="float32")
        with Session(model, config):
            assert compute_dtype_name() == "float32"
        assert compute_dtype_name() == "float64"

    def test_session_restores_dtype_on_exception(self):
        from repro.models import CrossbarMLP
        from repro.sim import Session
        from repro.tensor import compute_dtype_name
        from repro.tensor.random import RandomState

        model = CrossbarMLP(in_features=8, hidden_sizes=(4,), num_classes=2, rng=RandomState(0))
        config = SimConfig(mode="noisy", noise_sigma=1.0, pulses=8, dtype="float32")
        with pytest.raises(RuntimeError):
            with Session(model, config):
                raise RuntimeError("boom")
        assert compute_dtype_name() == "float64"


class TestPinnedBaselineHashes:
    """Hashes recorded before the dtype field existed — must never move.

    These literals were captured from the pre-dtype tree; a change here
    means every store key and seeded scenario in the wild silently shifts.
    """

    def test_default_config_hash(self):
        assert SimConfig().hash == "ed77cea35ad60ec9"

    def test_rich_config_hash(self):
        config = SimConfig(
            engine="vectorized",
            mode="noisy",
            pulses=(10, 12),
            noise_sigma=5.5,
            sigma_relative_to_fan_in=False,
            pla_mode="toward_extremes",
            seed=2022,
        )
        assert config.hash == "5945d8a60f307214"

    def test_scenario_spec_hash(self):
        from repro.experiments.runner import ScenarioSpec

        spec = ScenarioSpec.create(
            "table1",
            method="GBO-long",
            profile="fast",
            sigma=5.0,
            gamma=1e-3,
            engine="vectorized",
            seed=1234,
        )
        assert spec.hash == "0b3a282b9e194012"

    def test_scenario_spec_with_sim_hash(self):
        from repro.experiments.runner import ScenarioSpec

        spec = ScenarioSpec.create(
            "table1",
            method="GBO-long",
            profile="fast",
            sigma=5.0,
            gamma=1e-3,
            seed=1234,
            sim=SimConfig(engine="reference", mode="noisy", noise_sigma=3.0),
        )
        assert spec.hash == "84429f11741e8068"
