"""Benchmark E3 — Table I: Baseline vs PLA-n vs GBO under three noise levels.

Regenerates the full Table I sweep on the fast-profile VGG9: the 8-pulse
baseline, uniform PLA schedules (10/12/14/16 pulses) and two GBO runs with
different latency weights, at the profile's three noise levels (mapped to
the paper's sigma = 10/15/20 regimes).  The benchmark asserts the paper's
qualitative claims and prints reproduced-vs-paper rows.
"""

import pytest

from benchmarks.conftest import emit_report
from repro.experiments import run_experiment
from repro.experiments.table1 import PAPER_CLEAN_ACCURACY
from repro.training import evaluate_accuracy


@pytest.fixture(scope="module")
def table1_result(bundle):
    return run_experiment("table1", bundle=bundle)[0]


def _format_report(result, profile) -> str:
    lines = [
        "Paper reference: Table I — results on CIFAR-10 with VGG9",
        f"Profile: {profile.name} (synthetic CIFAR-like task, width x{profile.width_multiplier})",
        f"Noise mapping: ours sigma={list(profile.sigmas)} ~ paper sigma={list(profile.paper_sigmas)}",
        "",
        result.format_table(),
        "",
        "Expected shape (paper): accuracy rises monotonically (modulo noise) with",
        "the uniform pulse count; GBO's heterogeneous schedule beats the uniform",
        "PLA schedule of comparable average pulse count, with the largest gains",
        "in the severe-noise regime.",
    ]
    return "\n".join(lines)


def test_table1_baseline_pla_gbo(benchmark, bundle, table1_result, capsys, results_dir):
    profile = bundle.profile
    result = table1_result

    # Benchmark the repeated kernel: one noisy evaluation pass at the baseline.
    from repro.core.schedule import PulseSchedule
    from repro.sim import SimConfig
    from repro.training.evaluate import noisy_accuracy

    layers = bundle.model.num_encoded_layers()
    benchmark.pedantic(
        lambda: noisy_accuracy(
            bundle.model,
            bundle.test_loader,
            SimConfig(
                mode="noisy",
                noise_sigma=profile.sigmas[0],
                pulses=PulseSchedule.uniform(layers, profile.base_pulses),
            ),
        ),
        rounds=2,
        iterations=1,
    )

    # ---- clean accuracy sanity (paper: 90.80%) --------------------------
    assert result.clean_accuracy > 60.0, "pre-trained model failed to learn the task"

    for sigma in profile.sigmas:
        baseline = result.row("Baseline", sigma)
        pla16 = result.row("PLA16", sigma)
        # Noise hurts relative to clean accuracy.
        assert baseline.accuracy <= result.clean_accuracy + 2.0
        # More pulses recover accuracy (Section II-B / Table I).
        assert pla16.accuracy >= baseline.accuracy - 2.0

    # Severe-noise regime: the ordering claims are the strongest in the paper.
    severe = profile.sigmas[-1]
    baseline = result.row("Baseline", severe)
    pla16 = result.row("PLA16", severe)
    gbo_long = result.row("GBO-long", severe)
    assert pla16.accuracy > baseline.accuracy, "PLA16 must beat the 8-pulse baseline at severe noise"
    assert gbo_long.accuracy > baseline.accuracy + 5.0, "GBO must improve substantially over baseline"
    # GBO-long should be competitive with the uniform PLA of similar latency
    # (PLA14).  A small slack absorbs the stochasticity of the short GBO run
    # the fast profile can afford (the paper trains the logits for 10 epochs
    # on the full CIFAR-10 training set).
    pla14 = result.row("PLA14", severe)
    assert gbo_long.accuracy >= pla14.accuracy - 6.0

    # GBO produces heterogeneous, valid schedules within the search space.
    for method in ("GBO-short", "GBO-long"):
        row = result.row(method, severe)
        assert len(row.schedule) == bundle.model.num_encoded_layers()
        assert all(p in (4, 6, 8, 10, 12, 14, 16) for p in row.schedule)
    # The two gamma settings explore different latency budgets.
    assert (
        result.row("GBO-short", severe).average_pulses
        <= result.row("GBO-long", severe).average_pulses + 2.0
    )

    emit_report(capsys, results_dir, "table1_baseline_pla_gbo", _format_report(result, profile))
