"""Tests for the crossbar latency/energy cost model."""

import numpy as np
import pytest

from repro.core import PulseSchedule
from repro.crossbar import CostModelConfig, CrossbarCostModel
from repro.models import CrossbarMLP
from repro.sim import SimConfig, apply_config
from repro.tensor.random import RandomState


@pytest.fixture
def model():
    return CrossbarMLP(48, hidden_sizes=(32, 32), num_classes=10, rng=RandomState(0))


@pytest.fixture
def cost_model():
    return CrossbarCostModel(CostModelConfig(pulse_duration_ns=10.0, tile_rows=16, tile_cols=16))


class TestCostPrimitives:
    def test_latency_linear_in_pulses(self, cost_model):
        assert cost_model.layer_latency_ns(8) == pytest.approx(80.0)
        assert cost_model.layer_latency_ns(16) == pytest.approx(2 * cost_model.layer_latency_ns(8))

    def test_energy_linear_in_pulses(self, cost_model):
        e8 = cost_model.layer_energy_pj(32, 32, 8)
        e16 = cost_model.layer_energy_pj(32, 32, 16)
        assert e16 == pytest.approx(2 * e8)

    def test_tile_count_ceiling(self, cost_model):
        assert cost_model.tiles_for(16, 16) == 1
        assert cost_model.tiles_for(17, 16) == 2
        assert cost_model.tiles_for(33, 33) == 9

    def test_invalid_inputs(self, cost_model):
        with pytest.raises(ValueError):
            cost_model.layer_latency_ns(0)
        with pytest.raises(ValueError):
            cost_model.layer_energy_pj(16, 16, 0)
        with pytest.raises(ValueError):
            CostModelConfig(pulse_duration_ns=0.0)
        with pytest.raises(ValueError):
            CostModelConfig(tile_rows=0)
        with pytest.raises(ValueError):
            CostModelConfig(adc_energy_pj=-1.0)


class TestScheduleCost:
    def test_report_structure(self, model, cost_model):
        report = cost_model.schedule_cost(model, PulseSchedule([8, 16]))
        assert len(report.layers) == 2
        assert report.average_pulses == pytest.approx(12.0)
        assert report.total_latency_ns == pytest.approx(cost_model.layer_latency_ns(8) + cost_model.layer_latency_ns(16))
        assert report.total_energy_pj > 0
        assert "total" in report.format_table()

    def test_defaults_to_current_model_schedule(self, model, cost_model):
        apply_config(model, SimConfig(pulses=(4, 10)))
        report = cost_model.schedule_cost(model)
        assert [layer.num_pulses for layer in report.layers] == [4, 10]

    def test_longer_schedule_costs_more(self, model, cost_model):
        short = cost_model.schedule_cost(model, PulseSchedule([8, 8]))
        long = cost_model.schedule_cost(model, PulseSchedule([16, 16]))
        assert long.total_latency_ns > short.total_latency_ns
        assert long.total_energy_pj > short.total_energy_pj

    def test_paper_gbo_schedule_cheaper_than_pla14(self, model, cost_model):
        """A heterogeneous schedule with lower average pulses must cost less
        than the uniform PLA schedule it is compared against in Table I."""
        gbo_like = cost_model.schedule_cost(model, PulseSchedule([10, 8]))
        pla14 = cost_model.schedule_cost(model, PulseSchedule([14, 14]))
        assert gbo_like.total_latency_ns < pla14.total_latency_ns
        assert gbo_like.total_energy_pj < pla14.total_energy_pj

    def test_schedule_length_mismatch(self, model, cost_model):
        with pytest.raises(ValueError):
            cost_model.schedule_cost(model, PulseSchedule([8, 8, 8]))

    def test_compare_schedules(self, model, cost_model):
        reports = cost_model.compare_schedules(
            model, {"baseline": PulseSchedule([8, 8]), "pla16": PulseSchedule([16, 16])}
        )
        assert set(reports) == {"baseline", "pla16"}
        assert reports["pla16"].total_energy_pj > reports["baseline"].total_energy_pj
