"""Benchmark A2 — ablation: PLA approximation error versus pulse count.

Section III-B argues that the PLA re-encoding error is negligible because
BN + Tanh drive deep-layer activations towards +-1.  This ablation measures
the mean absolute representation error over a saturating activation
distribution for every pulse length in the paper's search space and for both
rounding modes, and verifies the error profile on the real network's
activation statistics.
"""

import numpy as np
import pytest

from benchmarks.conftest import emit_report
from repro.core.pla import pla_approximation_error
from repro.experiments.ablations import assemble_pla_error, pla_error_grid
from repro.experiments.runner import run_grid
from repro.tensor import Tensor, no_grad
from repro.sim import SimConfig, apply_config


@pytest.fixture(scope="module")
def pla_rows():
    grid = pla_error_grid(pulse_counts=(4, 6, 8, 10, 12, 14, 16), saturation=0.6)
    return assemble_pla_error(grid, run_grid(grid).results)


def _collect_real_activations(bundle, max_batches: int = 2) -> np.ndarray:
    """Capture the quantised input of the deepest encoded layer on real data."""
    model = bundle.model
    apply_config(model, SimConfig(mode="clean"))
    captured = []
    layer = model.encoded_layers()[-1]
    original_forward = layer.forward

    def capturing_forward(x):
        captured.append(np.array(layer.act_quantizer(x).data, copy=True))
        return original_forward(x)

    layer.forward = capturing_forward
    try:
        with no_grad():
            for index, (inputs, _) in enumerate(bundle.test_loader):
                model(Tensor(inputs))
                if index + 1 >= max_batches:
                    break
    finally:
        layer.forward = original_forward
    return np.concatenate([c.reshape(-1) for c in captured])


def _format_report(rows, real_errors) -> str:
    lines = [
        "Ablation A2 — PLA approximation error (paper Section III-B / Table I)",
        "",
        "Synthetic saturating activation distribution (60% mass at +-1):",
        f"{'pulses':>7} {'toward_extremes':>16} {'nearest':>9}",
    ]
    by_pulses = {}
    for row in rows:
        by_pulses.setdefault(row.num_pulses, {})[row.mode] = row.mean_abs_error
    for pulses, modes in sorted(by_pulses.items()):
        lines.append(
            f"{pulses:>7d} {modes['toward_extremes']:>16.4f} {modes['nearest']:>9.4f}"
        )
    lines += ["", "Real deep-layer activations of the pre-trained VGG9:"]
    lines.append(f"{'pulses':>7} {'mean abs error':>15}")
    for pulses, error in real_errors.items():
        lines.append(f"{pulses:>7d} {error:>15.4f}")
    lines += [
        "",
        "Expected shape (paper): the approximation error stays small for every",
        "pulse count in the search space (it is exactly zero for 8 and 16 pulses),",
        "so PLA's accuracy cost is negligible (Table I's PLA rows).",
    ]
    return "\n".join(lines)


def test_ablation_pla_error(benchmark, bundle, pla_rows, capsys, results_dir):
    activations = _collect_real_activations(bundle)
    saturation_fraction = np.mean(np.abs(activations) > 0.99)

    real_errors = {
        pulses: pla_approximation_error(activations, pulses)
        for pulses in (4, 6, 8, 10, 12, 14, 16)
    }

    benchmark(lambda: pla_approximation_error(activations, 10))

    # Exact representation at the base pulse count and its multiples.
    assert real_errors[8] == pytest.approx(0.0, abs=1e-12)
    assert real_errors[16] == pytest.approx(0.0, abs=1e-12)
    # The error for every candidate length stays below one quantisation step.
    assert max(real_errors.values()) < 0.25
    # A measurable fraction of deep activations sits at the +-1 rails (the
    # PLA premise); the reduced-width model saturates less sharply than the
    # paper's full VGG9, so the threshold is conservative.
    assert saturation_fraction > 0.05

    report = _format_report(pla_rows, real_errors)
    report += f"\n\nMeasured saturation of deep-layer activations: {saturation_fraction*100:.1f}% at |x| > 0.99"
    emit_report(capsys, results_dir, "ablation_pla_error", report)
