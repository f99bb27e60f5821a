"""Benchmark E2 — Fig. 2: layer-wise noise sensitivity of the VGG9 network.

Injects crossbar noise into one encoded layer at a time of the pre-trained
model and reports the accuracy per target layer, reproducing the
heterogeneous sensitivity profile that motivates GBO's per-layer pulse
lengths.
"""

import numpy as np
import pytest

from benchmarks.conftest import emit_report
from repro.experiments import run_experiment
from repro.training import evaluate_accuracy
from repro.sim import SimConfig, apply_config


@pytest.fixture(scope="module")
def fig2_result(bundle):
    return run_experiment("fig2", bundle=bundle)[0]


def _format_report(result, profile) -> str:
    lines = [
        "Paper reference: Fig. 2 — layer-wise noise sensitivity (VGG9)",
        f"Profile: {profile.name} | injected sigma = {result.sigma} "
        f"(paper uses its own sigma on full-scale CIFAR-10 VGG9)",
        "",
        result.format_table(),
        "",
        "Expected shape (paper): the accuracy drop depends strongly on WHICH",
        "layer is noisy — sensitivities are heterogeneous across layers, which",
        "is the motivation for layer-wise (rather than uniform) bit encoding.",
    ]
    spread = max(result.accuracy_by_layer()) - min(result.accuracy_by_layer())
    lines.append(f"Measured sensitivity spread across layers: {spread:.2f} accuracy points")
    return "\n".join(lines)


def test_fig2_layer_sensitivity(benchmark, bundle, fig2_result, capsys, results_dir):
    # Benchmark one clean evaluation pass over the test set (the repeated
    # kernel of the sensitivity sweep).
    apply_config(bundle.model, SimConfig(mode="clean"))
    benchmark.pedantic(
        lambda: evaluate_accuracy(bundle.model, bundle.test_loader), rounds=2, iterations=1
    )

    result = fig2_result
    accuracies = result.accuracy_by_layer()
    assert len(accuracies) == bundle.model.num_encoded_layers()
    # Noise in a single layer must not help beyond noise fluctuation, and at
    # least one layer must be measurably sensitive.
    assert min(accuracies) < result.clean_accuracy
    # Heterogeneity: the most and least sensitive layers differ.
    assert max(accuracies) - min(accuracies) > 1.0

    emit_report(capsys, results_dir, "fig2_layer_sensitivity", _format_report(result, bundle.profile))
