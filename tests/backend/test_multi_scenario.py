"""Multi-scenario evaluation: bit-identity and compatibility rules.

The contract under test: evaluating K compatible scenarios together
produces — per scenario, bit for bit — the numbers K sequential runs
produce, because

* every matmul runs at exactly the sequential batch size (BLAS results
  depend on operand shapes, so a K*N-row matmul would NOT be bit-identical
  to an N-row one) — model-level, every layer past the shared stem runs
  once per scenario at batch N, and
* every scenario draws its noise from its own RNG stream; streams are
  never merged or interleaved.

Layers: the engine primitive (``read_multi``), config compatibility
(``compat_key``), the model-level ``MultiSession`` /
``evaluate_multi``, and the runner's scenario stacking.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import ReferenceEngine, VectorizedEngine, get_engine
from repro.crossbar import (
    CrossbarConfig,
    DeviceVariationNoise,
    GaussianReadNoise,
    ThermometerEncoder,
    TiledCrossbar,
    pulsed_mvm_multi,
)
from repro.models import VGG9, CrossbarLeNet, CrossbarMLP, VGGConfig
from repro.sim import MultiSession, Session, SimConfig
from repro.tensor import Tensor
from repro.tensor.random import RandomState
from repro.training.evaluate import evaluate_accuracy, evaluate_multi

SEED = 20220


@pytest.fixture(params=["reference", "vectorized"])
def engine(request):
    return get_engine(request.param)


def _tiled(sigma=0.05, seed=SEED, out_features=12, in_features=24):
    rng = RandomState(seed)
    weights = np.where(
        rng.uniform(size=(out_features, in_features)) < 0.5, -1.0, 1.0
    )
    config = CrossbarConfig(
        noise=GaussianReadNoise(sigma), max_rows=8, max_cols=8
    )
    return TiledCrossbar(weights, config=config, rng=RandomState(seed))


def _values(batch=5, in_features=24, seed=SEED + 1):
    rng = RandomState(seed)
    return np.clip(rng.normal(0.0, 0.5, size=(batch, in_features)), -1.0, 1.0)


class TestReadMulti:
    """Engine primitive: K encoded reads in one call, per-scenario streams."""

    def test_matches_sequential_reads_mixed_pulse_counts(self, engine):
        crossbar = _tiled()
        values = _values()
        encoders = [ThermometerEncoder(p) for p in (8, 4, 8, 16)]
        seeds = [SEED + 10 + k for k in range(len(encoders))]

        sequential = np.stack(
            [
                engine.encoded_read(
                    crossbar, values, encoder, rng=RandomState(seed)
                )
                for encoder, seed in zip(encoders, seeds)
            ]
        )
        batched = engine.read_multi(
            crossbar,
            values,
            encoders,
            rngs=[RandomState(seed) for seed in seeds],
        )
        assert batched.shape == (len(encoders),) + sequential.shape[1:]
        np.testing.assert_array_equal(batched, sequential)

    def test_k_equals_one(self, engine):
        crossbar = _tiled()
        values = _values()
        encoder = ThermometerEncoder(8)
        single = engine.encoded_read(
            crossbar, values, encoder, rng=RandomState(SEED)
        )
        batched = engine.read_multi(
            crossbar, values, [encoder], rngs=[RandomState(SEED)]
        )
        np.testing.assert_array_equal(batched[0], single)

    def test_noiseless_reads_share_one_matmul(self, engine):
        crossbar = _tiled(sigma=0.0)
        values = _values()
        encoders = [ThermometerEncoder(8)] * 3
        batched = engine.read_multi(crossbar, values, encoders, add_noise=False)
        expected = engine.encoded_read(
            crossbar, values, encoders[0], add_noise=False
        )
        for k in range(3):
            np.testing.assert_array_equal(batched[k], expected)

    def test_engines_agree_bitwise_on_clean_reads(self):
        crossbar = _tiled(sigma=0.0)
        values = _values()
        encoders = [ThermometerEncoder(p) for p in (8, 4)]
        reference = get_engine("reference").read_multi(
            crossbar, values, encoders, add_noise=False
        )
        vectorized = get_engine("vectorized").read_multi(
            crossbar, values, encoders, add_noise=False
        )
        np.testing.assert_array_equal(reference, vectorized)

    def test_vectorized_falls_back_for_non_foldable_noise(self):
        # Multiplicative device variation cannot be folded into one
        # analytic draw; the vectorized override must defer to the oracle
        # loop and still honour per-scenario streams.
        rng = RandomState(SEED)
        weights = np.where(rng.uniform(size=(12, 24)) < 0.5, -1.0, 1.0)
        config = CrossbarConfig(
            noise=DeviceVariationNoise(0.05), max_rows=8, max_cols=8
        )
        crossbar = TiledCrossbar(weights, config=config, rng=RandomState(SEED))
        values = _values()
        encoders = [ThermometerEncoder(p) for p in (8, 4)]
        seeds = [SEED + 1, SEED + 2]
        engine = get_engine("vectorized")
        sequential = np.stack(
            [
                engine.encoded_read(
                    crossbar, values, encoder, rng=RandomState(seed)
                )
                for encoder, seed in zip(encoders, seeds)
            ]
        )
        batched = engine.read_multi(
            crossbar, values, encoders, rngs=[RandomState(s) for s in seeds]
        )
        np.testing.assert_array_equal(batched, sequential)

    def test_rng_length_mismatch_raises(self, engine):
        crossbar = _tiled()
        with pytest.raises(ValueError, match="rngs"):
            engine.read_multi(
                crossbar,
                _values(),
                [ThermometerEncoder(8)] * 2,
                rngs=[RandomState(SEED)],
            )

    def test_pulsed_mvm_multi_facade(self, engine):
        crossbar = _tiled()
        values = _values()
        encoders = [ThermometerEncoder(8), ThermometerEncoder(4)]
        seeds = [SEED + 5, SEED + 6]
        facade = pulsed_mvm_multi(
            crossbar,
            values,
            encoders,
            engine=engine,
            rngs=[RandomState(s) for s in seeds],
        )
        direct = engine.read_multi(
            crossbar, values, encoders, rngs=[RandomState(s) for s in seeds]
        )
        np.testing.assert_array_equal(facade, direct)


class TestConfigStacking:
    def test_compat_key_ignores_per_scenario_axes(self):
        base = SimConfig(engine="vectorized", mode="noisy", noise_sigma=2.0)
        variants = [
            SimConfig(engine="vectorized", mode="clean"),
            SimConfig(engine="vectorized", mode="noisy", noise_sigma=6.0),
            SimConfig(engine="vectorized", mode="noisy", noise_sigma=2.0, pulses=4),
            SimConfig(
                engine="vectorized",
                mode="noisy",
                noise_sigma=2.0,
                sigma_relative_to_fan_in=True,
            ),
            SimConfig(engine="vectorized", mode="noisy", noise_sigma=2.0, seed=7),
        ]
        for variant in variants:
            assert variant.compat_key() == base.compat_key()

    @pytest.mark.parametrize(
        "changes",
        [
            {"engine": "reference"},
            {"pla_mode": "nearest"},
            {"dtype": "float32"},
        ],
    )
    def test_compat_key_separates_incompatible_axes(self, changes):
        base = SimConfig(engine="vectorized", mode="noisy", noise_sigma=2.0)
        assert base.with_changes(**changes).compat_key() != base.compat_key()

    def test_hashed_identity_unchanged_by_compat_key(self):
        # compat_key must not leak into the hashed wire form.
        config = SimConfig(engine="vectorized", mode="noisy", noise_sigma=2.0)
        assert not any("compat" in key for key in config.as_dict())


def _lenet(sigma=0.0):
    model = CrossbarLeNet(
        num_classes=4,
        in_channels=1,
        image_size=16,
        base_channels=4,
        noise_sigma=sigma,
        rng=RandomState(SEED),
    )
    # Multi-scenario evaluation is inference-only; train-mode BatchNorm
    # would use (and mutate) batch statistics once per scenario.
    model.eval()
    return model


def _vgg9():
    config = VGGConfig(
        num_classes=4, in_channels=1, image_size=16, width_multiplier=1 / 16
    )
    return VGG9(config, rng=RandomState(SEED)).eval()


def _mlp():
    return CrossbarMLP(
        in_features=256, hidden_sizes=(16, 16), num_classes=4, rng=RandomState(SEED)
    ).eval()


#: Every model takes the same (N, 1, 16, 16) batches from ``_batch``.
MODELS = {"vgg9": _vgg9, "lenet": _lenet, "mlp": _mlp}


def _batch(batch=6, seed=SEED + 2):
    rng = RandomState(seed)
    inputs = np.clip(
        rng.normal(0.0, 0.5, size=(batch, 1, 16, 16)), -1.0, 1.0
    )
    targets = rng.randint(0, 4, size=batch)
    return inputs, targets


def _pin_stream(model, seed):
    """One stream per scenario, shared by every layer — exactly what the
    sequential scenario runner does (it reseeds the context stream once per
    scenario)."""
    stream = RandomState(seed)
    for layer in model.encoded_layers():
        layer.noise_rng = stream


def _sim_state(model):
    return [
        (
            layer.mode,
            layer.num_pulses,
            layer.noise_sigma,
            layer.sigma_relative_to_fan_in,
            layer.pla_mode,
            layer._engine,
            layer.noise_rng,
        )
        for layer in model.encoded_layers()
    ]


MIXED_CONFIGS = [
    SimConfig(mode="noisy", noise_sigma=2.0),
    SimConfig(mode="noisy", noise_sigma=0.0),
    SimConfig(mode="clean"),
    SimConfig(mode="noisy", noise_sigma=1.0, pulses=4),
    SimConfig(mode="noisy", noise_sigma=0.5, sigma_relative_to_fan_in=True),
]

#: Distinct first-layer encodings among MIXED_CONFIGS: the base 8-pulse
#: encoding (clean, sigma 0, sigma 2, fan-in-relative) and PLA at 4 pulses.
MIXED_ENCODINGS = 2


class TestMultiSession:
    @pytest.mark.parametrize("engine_name", ["reference", "vectorized"])
    def test_bit_identical_to_sequential_sessions(self, engine_name):
        configs = [
            config.with_changes(engine=engine_name) for config in MIXED_CONFIGS
        ]
        seeds = [SEED + 20 + k for k in range(len(configs))]
        batches = [_batch(seed=SEED + 50), _batch(seed=SEED + 51)]
        num_repeats = 2
        for model_name, make_model in sorted(MODELS.items()):
            model = make_model()
            sequential_logits, sequential_acc = [], []
            for config, seed in zip(configs, seeds):
                with Session(model, config):
                    _pin_stream(model, seed)
                    sequential_logits.append(
                        [
                            model(Tensor(inputs)).data.copy()
                            for _ in range(num_repeats)
                            for inputs, _ in batches
                        ]
                    )
                    _pin_stream(model, seed)
                    sequential_acc.append(
                        [evaluate_accuracy(model, batches) for _ in range(num_repeats)]
                    )

            first = model.encoded_layers()[0]
            reads = []

            def counting_read(encoded, _read=first._ideal_read):
                reads.append(encoded.shape[0])
                return _read(encoded)

            first._ideal_read = counting_read
            multi_logits = [[] for _ in configs]
            with MultiSession(
                model, configs, rngs=[RandomState(s) for s in seeds]
            ) as session:
                for _ in range(num_repeats):
                    for inputs, _ in batches:
                        for scenario, block in zip(
                            multi_logits, session.forward(Tensor(inputs))
                        ):
                            scenario.append(block.data)
            del first._ideal_read
            # One ideal read per distinct encoding per batch, at batch N.
            assert reads == [len(batches[0][0])] * (
                MIXED_ENCODINGS * len(batches) * num_repeats
            ), model_name

            for got, expected in zip(multi_logits, sequential_logits):
                for block, want in zip(got, expected):
                    np.testing.assert_array_equal(block, want, err_msg=model_name)
            batched_acc = evaluate_multi(
                model,
                batches,
                configs,
                rngs=[RandomState(s) for s in seeds],
                num_repeats=num_repeats,
            )
            assert batched_acc == sequential_acc, model_name

    @pytest.mark.parametrize("model_name", sorted(MODELS))
    def test_every_layer_past_the_stem_runs_at_batch_n(self, model_name):
        # The documented batch-N matmul rule holds for every layer,
        # encoded or digital: no op ever sees a K*N-row stack.
        model = MODELS[model_name]()
        batches = [_batch(), _batch(seed=SEED + 3)]
        configs = [
            SimConfig(mode="noisy", noise_sigma=sigma, engine="vectorized")
            for sigma in (1.0, 2.0, 3.0)
        ]
        rows = {}
        for name, layer in [
            *zip(model.encoded_layer_names(), model.encoded_layers()),
            ("classifier", model.classifier),
        ]:
            def recording_forward(x, _name=name, _forward=layer.forward):
                rows.setdefault(_name, []).append(x.shape[0])
                return _forward(x)

            layer.forward = recording_forward

        evaluate_multi(model, batches, configs)
        assert set(rows) == {*model.encoded_layer_names(), "classifier"}
        expected = [len(batches[0][0])] * (len(configs) * len(batches))
        for name, seen in rows.items():
            assert seen == expected, name

    def test_incompatible_configs_raise(self):
        model = _lenet()
        configs = [
            SimConfig(mode="noisy", noise_sigma=2.0, engine="vectorized"),
            SimConfig(mode="noisy", noise_sigma=2.0, engine="reference"),
        ]
        with pytest.raises(ValueError, match="not stackable"):
            MultiSession(model, configs)

    def test_gbo_mode_rejected(self):
        model = _lenet()
        with pytest.raises(ValueError, match="mode"):
            MultiSession(model, [SimConfig(mode="gbo")])

    _RESTORE_CONFIGS = [
        SimConfig(
            mode="noisy",
            noise_sigma=1.0,
            engine="reference",
            pulses=4,
            pla_mode="nearest",
            sigma_relative_to_fan_in=True,
        ),
        SimConfig(mode="clean", engine="reference", pla_mode="nearest"),
    ]

    def test_state_restored_after_exit(self):
        model = _lenet(sigma=3.0)
        before = _sim_state(model)
        inputs, _ = _batch()
        with MultiSession(model, self._RESTORE_CONFIGS) as session:
            session.forward(Tensor(inputs))
        assert _sim_state(model) == before
        assert all(layer._read_memo is None for layer in model.encoded_layers())

    def test_state_restored_when_body_raises(self):
        # A leaked per-scenario stream would survive into later runs and
        # break their reseeding through the context stream.
        model = _lenet(sigma=3.0)
        before = _sim_state(model)
        inputs, _ = _batch()
        with pytest.raises(RuntimeError, match="boom"):
            with MultiSession(model, self._RESTORE_CONFIGS) as session:
                session.forward(Tensor(inputs))
                raise RuntimeError("boom")
        assert _sim_state(model) == before
        assert all(layer._read_memo is None for layer in model.encoded_layers())


class TestEvaluateMulti:
    def test_matches_sequential_evaluate(self):
        model = _lenet()
        batches = [_batch(seed=SEED + 30), _batch(seed=SEED + 31)]
        configs = [
            config.with_changes(engine="vectorized") for config in MIXED_CONFIGS
        ]
        seeds = [SEED + 40 + k for k in range(len(configs))]
        num_repeats = 2

        sequential = []
        for config, seed in zip(configs, seeds):
            with Session(model, config):
                _pin_stream(model, seed)
                sequential.append(
                    [evaluate_accuracy(model, batches) for _ in range(num_repeats)]
                )

        batched = evaluate_multi(
            model,
            batches,
            configs,
            rngs=[RandomState(s) for s in seeds],
            num_repeats=num_repeats,
        )
        assert batched == sequential


class TestRunnerStacking:
    def test_batch_keys_group_only_compatible_api_eval_specs(self):
        from repro.api import api_eval_batch_key, eval_scenario_spec
        from repro.experiments.runner.executor import _stack_groups
        from repro.experiments.runner.spec import ScenarioSpec

        specs = [
            eval_scenario_spec("smoke", SimConfig(mode="noisy", noise_sigma=2.0)),
            eval_scenario_spec("smoke", SimConfig(mode="noisy", noise_sigma=4.0)),
            eval_scenario_spec("smoke", SimConfig(mode="clean")),
            # repeat count joins the key: different repeats never stack
            eval_scenario_spec(
                "smoke", SimConfig(mode="noisy", noise_sigma=2.0), num_repeats=3
            ),
            # dtype is a compat axis: float32 never stacks with float64
            eval_scenario_spec(
                "smoke", SimConfig(mode="noisy", noise_sigma=2.0, dtype="float32")
            ),
            # non-api_eval experiments are never batchable
            ScenarioSpec.create("selftest", method="probe", params={"value": 1}),
            # gbo mode forwards train logits in place and never stacks
            eval_scenario_spec("smoke", SimConfig(mode="gbo")),
        ]
        keys = [api_eval_batch_key(spec) for spec in specs]
        assert keys[0] == keys[1] == keys[2]
        assert keys[3] not in (None, keys[0])
        assert keys[4] not in (None, keys[0])
        assert keys[5] is None
        assert keys[6] is None

        groups = _stack_groups(specs)
        assert set(groups) == {specs[0].hash, specs[1].hash, specs[2].hash}
        assert len(groups[specs[0].hash]) == 3

    @pytest.mark.slow
    def test_run_grid_batched_matches_sequential_and_resume(
        self, tmp_path, monkeypatch
    ):
        from repro.api import eval_scenario_spec
        from repro.experiments.common import clear_bundle_cache
        from repro.experiments.runner.executor import run_grid
        from repro.experiments.runner.spec import ScenarioGrid
        from repro.experiments.runner.store import ResultStore

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_bundle_cache()
        try:
            specs = tuple(
                eval_scenario_spec("smoke", SimConfig(mode="noisy", noise_sigma=s))
                for s in (2.0, 4.0, 6.0)
            ) + (eval_scenario_spec("smoke", SimConfig(mode="clean")),)
            grid = ScenarioGrid(name="api_sweep", specs=specs)

            sequential = run_grid(grid, batch=False)
            batched = run_grid(grid, batch=True)
            assert batched.results == sequential.results
            assert batched.executed == len(grid)

            store = ResultStore(str(tmp_path / "runner"))
            populated = run_grid(grid, store=store, batch=True)
            resumed = run_grid(grid, store=store, batch=True)
            assert populated.results == sequential.results
            assert resumed.cached == len(grid) and resumed.executed == 0
            assert resumed.results == sequential.results
        finally:
            clear_bundle_cache()
