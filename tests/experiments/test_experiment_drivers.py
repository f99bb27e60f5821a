"""Tests for profiles, the shared bundle machinery and the experiments.

Every experiment runs its grid through ``run_grid`` and its assembler, on
the ``smoke`` profile (tiny MLP) so the full suite stays fast; the benchmark
harness runs the same grids at the ``fast`` profile scale.
"""

import numpy as np
import pytest

pytestmark = pytest.mark.slow  # pre-trains models; skipped by -m "not slow"

from repro.experiments import (
    EXPERIMENTS,
    describe_experiments,
    get_profile,
    get_pretrained_bundle,
    run_experiment,
)
from repro.experiments.ablations import (
    assemble_encoding_ablation,
    assemble_gamma_tradeoff,
    assemble_pla_error,
    encoding_ablation_grid,
    gamma_tradeoff_grid,
    pla_error_grid,
)
from repro.experiments.common import build_loaders, build_model, clear_bundle_cache
from repro.experiments.fig1b import assemble_fig1b, fig1b_grid
from repro.experiments.profiles import PROFILES, ExperimentProfile
from repro.experiments.runner import run_grid
from repro.experiments.table1 import PAPER_TABLE1, assemble_table1, table1_grid
from repro.experiments.table2 import PAPER_TABLE2, assemble_table2, table2_grid


def _results(grid, bundle=None):
    return run_grid(grid, bundle=bundle).results


def _fig1b(**grid_kwargs):
    grid = fig1b_grid(**grid_kwargs)
    return assemble_fig1b(grid, _results(grid))


def _table1(bundle, **grid_kwargs):
    grid = table1_grid(bundle.profile, **grid_kwargs)
    return assemble_table1(grid, _results(grid, bundle), bundle)


def _table2(bundle, **grid_kwargs):
    grid = table2_grid(bundle.profile, **grid_kwargs)
    return assemble_table2(grid, _results(grid, bundle), bundle)


@pytest.fixture(scope="module")
def smoke_bundle():
    clear_bundle_cache()
    profile = get_profile("smoke")
    return get_pretrained_bundle(profile, use_disk_cache=False)


class TestProfiles:
    def test_known_profiles_exist(self):
        assert {"smoke", "fast", "paper"} <= set(PROFILES)

    def test_get_profile_default_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert get_profile().name == "fast"
        monkeypatch.setenv("REPRO_PROFILE", "smoke")
        assert get_profile().name == "smoke"

    def test_unknown_profile_raises(self):
        with pytest.raises(KeyError):
            get_profile("nonexistent")

    def test_paper_profile_matches_paper_hyperparameters(self):
        paper = get_profile("paper")
        assert paper.pretrain_epochs == 60
        assert paper.sigmas == (10.0, 15.0, 20.0)
        assert paper.width_multiplier == 1.0
        assert paper.base_pulses == 8

    def test_with_overrides(self):
        profile = get_profile("smoke").with_overrides(num_train=32)
        assert profile.num_train == 32
        assert profile.name == "smoke"


class TestBuilders:
    def test_build_loaders_shapes(self):
        profile = get_profile("smoke")
        train_loader, test_loader, gbo_loader = build_loaders(profile)
        images, labels = next(iter(train_loader))
        assert images.shape[1:] == (3, profile.image_size, profile.image_size)
        assert labels.ndim == 1
        assert len(gbo_loader.dataset) <= profile.gbo_subset

    def test_build_model_kinds(self):
        assert build_model(get_profile("smoke")).num_encoded_layers() == 3
        lenet_profile = get_profile("smoke").with_overrides(model="lenet")
        assert build_model(lenet_profile).num_encoded_layers() == 3
        with pytest.raises(ValueError):
            build_model(get_profile("smoke").with_overrides(model="transformer"))

    def test_bundle_caches_in_process(self, smoke_bundle):
        again = get_pretrained_bundle(get_profile("smoke"), use_disk_cache=False)
        assert again is smoke_bundle

    def test_prepare_checkpoint_builds_only_while_the_metadata_is_missing(
        self, tmp_path, monkeypatch
    ):
        import os

        from repro.context import ExecutionContext, use_context
        from repro.experiments import common

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        profile = get_profile("smoke")
        built = []
        build = common.get_pretrained_bundle
        monkeypatch.setattr(
            common, "get_pretrained_bundle", lambda p: built.append(p.name) or build(p)
        )
        with use_context(ExecutionContext()) as context:
            path = common.prepare_checkpoint(profile)
            assert os.path.exists(path)
            assert common.cached_clean_accuracy(profile) is not None
            assert context.bundles == {}  # the caller is left holding no model
            assert common.prepare_checkpoint(profile) == path
        assert built == ["smoke"]

    def test_bundle_state_restore(self, smoke_bundle):
        state = smoke_bundle.pretrained_state()
        layer = smoke_bundle.model.encoded_layers()[0]
        original = layer.weight.data.copy()
        layer.weight.data += 1.0
        smoke_bundle.restore(state)
        assert np.allclose(layer.weight.data, original)


class TestFig1b:
    def test_series_structure(self):
        result = _fig1b(bit_range=range(1, 7), monte_carlo_bits=(2,), num_trials=50)
        assert len(result.bits) == 6
        assert result.bit_slicing[0] == pytest.approx(1.0)
        assert result.thermometer[0] == pytest.approx(1.0)
        assert "bit_slicing" in result.monte_carlo

    def test_thermometer_more_robust(self):
        result = _fig1b(monte_carlo_bits=())
        for slicing, thermo in zip(result.bit_slicing[1:], result.thermometer[1:]):
            assert thermo < slicing

    def test_monte_carlo_close_to_analytic(self):
        result = _fig1b(bit_range=range(1, 4), monte_carlo_bits=(2,), num_trials=300)
        analytic = result.thermometer[1]
        empirical = result.monte_carlo["thermometer"][2]
        assert empirical == pytest.approx(analytic, rel=0.3)

    def test_format_table(self):
        text = _fig1b(monte_carlo_bits=()).format_table()
        assert "bit-slicing" in text and "thermometer" in text


class TestFig2:
    def test_sensitivity_rows(self, smoke_bundle):
        result = run_experiment("fig2", bundle=smoke_bundle)[0]
        assert len(result.sensitivities) == smoke_bundle.model.num_encoded_layers()
        assert result.sigma in smoke_bundle.profile.sigmas
        assert 0.0 <= result.most_sensitive_layer().accuracy <= 100.0
        assert len(result.accuracy_by_layer()) == smoke_bundle.model.num_encoded_layers()
        assert "target layer" in result.format_table()


class TestTable1:
    def test_rows_without_gbo(self, smoke_bundle):
        result = _table1(
            smoke_bundle,
            sigmas=[smoke_bundle.profile.sigmas[0]],
            pla_pulse_counts=[16],
            include_gbo=False,
        )
        methods = {row.method for row in result.rows}
        assert methods == {"Baseline", "PLA16"}
        baseline = result.row("Baseline", smoke_bundle.profile.sigmas[0])
        assert baseline.schedule == [8] * smoke_bundle.model.num_encoded_layers()
        assert baseline.paper_accuracy == PAPER_TABLE1[("Baseline", 10.0)][0]
        assert "Baseline" in result.format_table()

    def test_rows_with_gbo(self, smoke_bundle):
        result = _table1(
            smoke_bundle,
            sigmas=[smoke_bundle.profile.sigmas[-1]],
            pla_pulse_counts=[],
            include_gbo=True,
        )
        gbo_rows = [row for row in result.rows if row.method.startswith("GBO")]
        assert len(gbo_rows) == 2
        for row in gbo_rows:
            assert len(row.schedule) == smoke_bundle.model.num_encoded_layers()
        # weights must be trainable again after GBO froze them
        assert all(p.requires_grad for p in smoke_bundle.model.parameters())

    def test_row_lookup_missing(self, smoke_bundle):
        result = _table1(
            smoke_bundle, sigmas=[smoke_bundle.profile.sigmas[0]],
            pla_pulse_counts=[], include_gbo=False,
        )
        with pytest.raises(KeyError):
            result.row("PLA16", 999.0)


class TestTable2:
    def test_all_methods_present(self, smoke_bundle):
        sigma = smoke_bundle.profile.sigmas[0]
        result = _table2(smoke_bundle, sigmas=[sigma])
        methods = {row.method for row in result.rows_for_sigma(sigma)}
        assert methods == {"Baseline", "NIA", "GBO", "NIA+GBO", "NIA+PLA"}
        nia_row = result.row("NIA", sigma)
        assert nia_row.paper_accuracy == PAPER_TABLE2[("NIA", 10.0)][0]
        assert "NIA+GBO" in result.format_table()

    def test_model_restored_to_pretrained_after_run(self, smoke_bundle):
        state_before = smoke_bundle.pretrained_state()
        _table2(smoke_bundle, sigmas=[smoke_bundle.profile.sigmas[0]])
        layer = smoke_bundle.model.encoded_layers()[0]
        assert np.allclose(layer.weight.data, state_before[f"{smoke_bundle.model.encoded_layer_names()[0]}.weight"])


class TestAblations:
    def test_encoding_ablation_thermometer_wins(self, smoke_bundle):
        sigma = smoke_bundle.profile.sigmas[-1]
        grid = encoding_ablation_grid(smoke_bundle.profile, sigmas=[sigma])
        result = assemble_encoding_ablation(grid, _results(grid, smoke_bundle), smoke_bundle)
        assert len(result.rows) == 2
        thermo_row = [r for r in result.rows if r.encoding == "thermometer"][0]
        slicing_row = [r for r in result.rows if r.encoding == "bit_slicing"][0]
        assert thermo_row.effective_noise_std < slicing_row.effective_noise_std

    def test_pla_error_ablation_rows(self):
        grid = pla_error_grid(pulse_counts=(8, 10, 16))
        rows = assemble_pla_error(grid, _results(grid))
        assert len(rows) == 6
        exact = [r for r in rows if r.num_pulses in (8, 16)]
        assert all(r.mean_abs_error < 1e-12 or r.num_pulses == 10 for r in exact)

    def test_gamma_tradeoff_rows(self, smoke_bundle):
        grid = gamma_tradeoff_grid(smoke_bundle.profile, gammas=[1e-4, 1.0])
        rows = assemble_gamma_tradeoff(grid, _results(grid, smoke_bundle))
        assert len(rows) == 2
        # The huge-gamma run must not select a longer schedule than the tiny-gamma run.
        assert rows[1].average_pulses <= rows[0].average_pulses + 1e-9


class TestRegistry:
    def test_every_experiment_has_benchmark(self):
        for spec in EXPERIMENTS.values():
            assert spec.benchmark.startswith("benchmarks/")

    def test_describe_lists_all(self):
        text = describe_experiments()
        for identifier in EXPERIMENTS:
            assert identifier in text
