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

Layers: config compatibility (``compat_key``), the model-level
``MultiSession`` / ``evaluate_multi``, and the runner's scenario stacking.

Every test runs twice: on a 2-thread BLAS pool, where ``MultiSession`` runs
one lane, and on a 1-thread pool, where two or more configs run in two
lanes (the second on a model replica in a helper
thread).  Probes patch classes, not instances, so they see the replica's
layers too.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np
import pytest

from repro.models import VGG9, CrossbarLeNet, CrossbarMLP, VGGConfig
from repro.sim import MultiSession, Session, SimConfig
from repro.tensor import Tensor
from repro.tensor.random import RandomState
from repro.training.evaluate import evaluate_accuracy, evaluate_multi
from repro.worker_env import blas_pinned, blas_pool_pinned

SEED = 20220


@pytest.fixture(autouse=True, params=["one_lane", "two_lanes"])
def lane_mode(request):
    """Size the BLAS pool that picks the lane count: 2 threads or 1."""
    with blas_pool_pinned(1 if request.param == "two_lanes" else 2) as threads:
        if threads is None:
            pytest.skip("numpy's bundled OpenBLAS was not found")
        yield request.param


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


def _streams(count, seed=SEED + 60):
    """One explicit stream per scenario, as every MultiSession requires."""
    return [RandomState(seed + k) for k in range(count)]


@contextlib.contextmanager
def _counting_reads(model):
    """Record the batch size of every ideal read of the first encoded layer,
    in either lane: the probe patches the layer's class and reads a marker
    that a replica copies."""
    first = model.encoded_layers()[0]
    cls = type(first)
    reads = []

    def counting_read(self, encoded, _read=cls._ideal_read):
        if getattr(self, "_probe_first", False):
            reads.append(encoded.shape[0])
        return _read(self, encoded)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(first, "_probe_first", True, raising=False)
        patch.setattr(cls, "_ideal_read", counting_read)
        yield reads


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



def _per_layer_sigma_configs(num_layers):
    """Per-layer sigma at the base encoding: only layer 1 noisy (Fig. 2's
    configuration), and a sigma growing with depth."""
    return [
        SimConfig(
            mode="noisy",
            noise_sigma=tuple(3.0 if index == 1 else 0.0 for index in range(num_layers)),
        ),
        SimConfig(
            mode="noisy",
            noise_sigma=tuple(0.5 * (index + 1) for index in range(num_layers)),
        ),
    ]


#: Distinct first-layer encodings among MIXED_CONFIGS and the per-layer
#: sigma configs: the base 8-pulse encoding (clean, sigma 0, sigma 2,
#: fan-in-relative, per-layer sigma) and PLA at 4 pulses.
MIXED_ENCODINGS = 2


class TestMultiSession:
    @pytest.mark.parametrize("engine_name", ["reference", "vectorized"])
    def test_bit_identical_to_sequential_sessions(self, engine_name):
        batches = [_batch(seed=SEED + 50), _batch(seed=SEED + 51)]
        num_repeats = 2
        for model_name, make_model in sorted(MODELS.items()):
            model = make_model()
            configs = [
                config.with_changes(engine=engine_name)
                for config in MIXED_CONFIGS
                + _per_layer_sigma_configs(model.num_encoded_layers())
            ]
            seeds = [SEED + 20 + k for k in range(len(configs))]
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

            multi_logits = [[] for _ in configs]
            with _counting_reads(model) as reads, MultiSession(
                model, configs, rngs=[RandomState(s) for s in seeds]
            ) as session:
                for _ in range(num_repeats):
                    for inputs, _ in batches:
                        for scenario, block in zip(
                            multi_logits, session.forward(Tensor(inputs))
                        ):
                            scenario.append(block.data)
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
    def test_every_layer_past_the_stem_runs_at_batch_n(self, model_name, monkeypatch):
        # The documented batch-N matmul rule holds for every layer,
        # encoded or digital, in either lane: no op ever sees a K*N-row
        # stack.  Each layer carries its name as a marker the replica
        # copies; the probe sits on the classes.
        model = MODELS[model_name]()
        batches = [_batch(), _batch(seed=SEED + 3)]
        configs = [
            SimConfig(mode="noisy", noise_sigma=sigma, engine="vectorized")
            for sigma in (1.0, 2.0, 3.0)
        ]
        rows, threads = {}, set()
        named = [
            *zip(model.encoded_layer_names(), model.encoded_layers()),
            ("classifier", model.classifier),
        ]
        for name, layer in named:
            monkeypatch.setattr(layer, "_probe_name", name, raising=False)
        for cls in {type(layer) for _, layer in named}:
            def recording_forward(self, x, _forward=cls.forward):
                name = getattr(self, "_probe_name", None)
                if name is not None:  # not a stem layer
                    rows.setdefault(name, []).append(x.shape[0])
                    threads.add(threading.current_thread().name)
                return _forward(self, x)

            monkeypatch.setattr(cls, "forward", recording_forward)

        evaluate_multi(model, batches, configs, rngs=_streams(len(configs)))
        assert set(rows) == {*model.encoded_layer_names(), "classifier"}
        expected = [len(batches[0][0])] * (len(configs) * len(batches))
        for name, seen in rows.items():
            assert seen == expected, name
        caller = threading.current_thread().name
        assert threads == ({caller, "eval-lane"} if blas_pinned() else {caller})

    @pytest.mark.parametrize("engine_name", ["reference", "vectorized"])
    def test_single_scenario_matches_session(self, engine_name):
        config = SimConfig(mode="noisy", noise_sigma=2.0, engine=engine_name)
        inputs, _ = _batch()
        for model_name, make_model in sorted(MODELS.items()):
            model = make_model()
            with Session(model, config):
                _pin_stream(model, SEED + 70)
                expected = model(Tensor(inputs)).data.copy()
            with MultiSession(model, [config], rngs=[RandomState(SEED + 70)]) as session:
                (got,) = session.forward(Tensor(inputs))
            np.testing.assert_array_equal(got.data, expected, err_msg=model_name)

    @pytest.mark.parametrize("engine_name", ["reference", "vectorized"])
    def test_base_encoding_scenarios_share_one_read(self, engine_name):
        # Clean, zero-sigma and explicit 8-pulse scenarios all use the base
        # encoding: one ideal read per batch, and identical noiseless logits.
        configs = [
            SimConfig(mode="clean", engine=engine_name),
            SimConfig(mode="noisy", noise_sigma=0.0, engine=engine_name),
            SimConfig(mode="clean", pulses=8, engine=engine_name),
        ]
        model = _lenet()
        inputs, _ = _batch()
        with Session(model, configs[0]):
            expected = model(Tensor(inputs)).data.copy()
        with _counting_reads(model) as reads:
            with MultiSession(model, configs, rngs=_streams(len(configs))) as session:
                logits = session.forward(Tensor(inputs))
        assert reads == [len(inputs)]
        for block in logits:
            np.testing.assert_array_equal(block.data, expected)

    @pytest.mark.parametrize("engine_name", ["reference", "vectorized"])
    def test_mixed_pulse_counts_match_sequential(self, engine_name):
        # Base, reduced and PLA pulse counts, with one encoding repeated at a
        # second sigma: one read per distinct encoding, each scenario equal
        # to its own sequential run.
        configs = [
            SimConfig(mode="noisy", noise_sigma=sigma, pulses=pulses, engine=engine_name)
            for pulses, sigma in ((8, 2.0), (4, 2.0), (12, 2.0), (4, 5.0))
        ]
        seeds = [SEED + 80 + k for k in range(len(configs))]
        model = _lenet()
        inputs, _ = _batch()
        sequential = []
        for config, seed in zip(configs, seeds):
            with Session(model, config):
                _pin_stream(model, seed)
                sequential.append(model(Tensor(inputs)).data.copy())
        with _counting_reads(model) as reads:
            with MultiSession(
                model, configs, rngs=[RandomState(s) for s in seeds]
            ) as session:
                logits = session.forward(Tensor(inputs))
        assert reads == [len(inputs)] * 3
        for block, want in zip(logits, sequential):
            np.testing.assert_array_equal(block.data, want)

    def test_engines_agree_bitwise_on_clean_scenarios(self):
        inputs, _ = _batch()
        for model_name, make_model in sorted(MODELS.items()):
            logits = {}
            for engine_name in ("reference", "vectorized"):
                configs = [
                    SimConfig(mode="clean", engine=engine_name),
                    SimConfig(mode="clean", pulses=4, engine=engine_name),
                ]
                with MultiSession(
                    make_model(), configs, rngs=_streams(len(configs))
                ) as session:
                    logits[engine_name] = [
                        block.data for block in session.forward(Tensor(inputs))
                    ]
            for reference, vectorized in zip(logits["reference"], logits["vectorized"]):
                np.testing.assert_array_equal(reference, vectorized, err_msg=model_name)

    def test_scenario_order_permutes_results(self):
        # Each scenario owns its stream: reordering configs with their
        # streams reorders the logits and changes nothing else.
        configs = [
            SimConfig(mode="noisy", noise_sigma=sigma, engine="vectorized")
            for sigma in (1.0, 3.0, 5.0)
        ]
        seeds = [SEED + 90 + k for k in range(len(configs))]
        model = _lenet()
        inputs, _ = _batch()
        with MultiSession(
            model, configs, rngs=[RandomState(s) for s in seeds]
        ) as session:
            forward = [block.data for block in session.forward(Tensor(inputs))]
        with MultiSession(
            model, configs[::-1], rngs=[RandomState(s) for s in seeds[::-1]]
        ) as session:
            backward = [block.data for block in session.forward(Tensor(inputs))]
        for got, want in zip(backward[::-1], forward):
            np.testing.assert_array_equal(got, want)

    def test_clean_scenario_draws_nothing_from_its_stream(self):
        configs = [
            SimConfig(mode="clean", engine="vectorized"),
            SimConfig(mode="noisy", noise_sigma=2.0, engine="vectorized"),
        ]
        rngs = _streams(len(configs))
        fresh = _streams(len(configs))
        with MultiSession(_lenet(), configs, rngs=rngs) as session:
            session.forward(Tensor(_batch()[0]))
        assert rngs[0].normal(size=4).tolist() == fresh[0].normal(size=4).tolist()
        assert rngs[1].normal(size=4).tolist() != fresh[1].normal(size=4).tolist()

    def test_rngs_are_required(self):
        with pytest.raises(TypeError, match="rngs"):
            MultiSession(_lenet(), [SimConfig(mode="clean")])

    def test_rng_length_mismatch_raises(self):
        configs = [SimConfig(mode="clean"), SimConfig(mode="noisy", noise_sigma=1.0)]
        with pytest.raises(ValueError, match="rngs"):
            MultiSession(_lenet(), configs, rngs=_streams(1))

    def test_empty_config_list_raises(self):
        with pytest.raises(ValueError, match="at least one"):
            MultiSession(_lenet(), [], rngs=[])

    def test_target_without_stem_raises(self):
        with pytest.raises(TypeError, match="forward_stem"):
            MultiSession(object(), [SimConfig(mode="clean")], rngs=_streams(1))

    def test_incompatible_configs_raise(self):
        model = _lenet()
        configs = [
            SimConfig(mode="noisy", noise_sigma=2.0, engine="vectorized"),
            SimConfig(mode="noisy", noise_sigma=2.0, engine="reference"),
        ]
        with pytest.raises(ValueError, match="not stackable"):
            MultiSession(model, configs, rngs=_streams(len(configs)))

    def test_gbo_mode_rejected(self):
        model = _lenet()
        with pytest.raises(ValueError, match="mode"):
            MultiSession(model, [SimConfig(mode="gbo")], rngs=_streams(1))

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
        with MultiSession(
            model, self._RESTORE_CONFIGS, rngs=_streams(len(self._RESTORE_CONFIGS))
        ) as session:
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
            with MultiSession(
                model, self._RESTORE_CONFIGS, rngs=_streams(len(self._RESTORE_CONFIGS))
            ) as session:
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

    def test_rngs_are_required(self):
        with pytest.raises(TypeError, match="rngs"):
            evaluate_multi(_lenet(), [_batch()], [SimConfig(mode="clean")])

    def test_nonpositive_repeats_raise(self):
        with pytest.raises(ValueError, match="num_repeats"):
            evaluate_multi(
                _lenet(),
                [_batch()],
                [SimConfig(mode="clean")],
                rngs=_streams(1),
                num_repeats=0,
            )

    def test_training_mode_restored(self):
        model = _lenet()
        model.train()
        evaluate_multi(model, [_batch()], [SimConfig(mode="clean")], rngs=_streams(1))
        assert model.training


class TestRunnerStacking:
    def test_batch_keys_group_only_compatible_api_eval_specs(self):
        from repro.experiments.runner.scenarios import (
            eval_scenario_spec,
            stack_groups,
            stack_key,
        )
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
            # experiments that are not one evaluation are never batchable
            ScenarioSpec.create("selftest", method="probe", params={"value": 1}),
            # gbo mode forwards train logits in place and never stacks
            eval_scenario_spec("smoke", SimConfig(mode="gbo")),
        ]
        keys = [stack_key(spec) for spec in specs]
        assert keys[0] == keys[1] == keys[2]
        assert keys[3] not in (None, keys[0])
        assert keys[4] not in (None, keys[0])
        assert keys[5] is None
        assert keys[6] is None

        # A spec whose bundle or key cannot be had joins no group, and the
        # others are still planned: a compatible spec whose bundle fails to
        # load, and a Fig. 2 cell, whose key reads its layer count from a
        # bundle it is not given.
        unloadable = eval_scenario_spec("smoke", SimConfig(mode="noisy", noise_sigma=6.0))
        fig2_cell = ScenarioSpec.create(
            "fig2", method="layer0", profile="smoke", sigma=2.0, layer_index=0
        )

        def bundle_for(spec):
            if spec is unloadable:
                raise RuntimeError("no checkpoint")
            return None

        groups = stack_groups(specs + [unloadable, fig2_cell], bundle_for)
        assert groups == [specs[:3]]

    @pytest.mark.slow
    def test_run_grid_batched_matches_sequential_and_resume(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments.common import clear_bundle_cache
        from repro.experiments.runner.executor import run_grid
        from repro.experiments.runner.scenarios import (
            eval_scenario_spec,
            execute_api_eval_batch,
        )
        from repro.experiments.runner.spec import ScenarioGrid
        from repro.experiments.runner.store import ResultStore

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_bundle_cache()
        sigma_sweep = tuple(
            eval_scenario_spec("smoke", SimConfig(mode="noisy", noise_sigma=s))
            for s in (2.0, 4.0, 6.0)
        ) + (eval_scenario_spec("smoke", SimConfig(mode="clean")),)
        # Base, reduced and PLA pulse counts: one first-layer memo read per
        # encoding, and each scenario's stream continued across repeats.
        pulse_sweep = tuple(
            eval_scenario_spec(
                "smoke",
                SimConfig(mode="noisy", noise_sigma=4.0, pulses=pulses),
                num_repeats=2,
            )
            for pulses in (8, 4, 12)
        )
        try:
            for name, specs in (("api_sweep", sigma_sweep), ("api_pulses", pulse_sweep)):
                grid = ScenarioGrid(name=name, specs=specs)
                stacks = []
                with monkeypatch.context() as patch:
                    patch.setattr(
                        "repro.experiments.runner.executor.execute_api_eval_batch",
                        _recording(stacks, execute_api_eval_batch),
                    )
                    sequential = run_grid(grid, batch=False)
                    batched = run_grid(grid, batch=True)
                assert stacks == [len(grid)], name
                assert batched.results == sequential.results, name
                assert batched.executed == len(grid)

                store = ResultStore(str(tmp_path / "runner" / name))
                populated = run_grid(grid, store=store, batch=True)
                resumed = run_grid(grid, store=store, batch=True)
                assert populated.results == sequential.results, name
                assert resumed.cached == len(grid) and resumed.executed == 0
                assert resumed.results == sequential.results, name
        finally:
            clear_bundle_cache()


def _recording(widths, execute):
    """``execute`` wrapped to append each stacked group's width to ``widths``."""

    def recording(specs, *args, **kwargs):
        widths.append(len(specs))
        return execute(specs, *args, **kwargs)

    return recording
