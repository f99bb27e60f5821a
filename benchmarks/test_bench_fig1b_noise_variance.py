"""Benchmark E1 — Fig. 1(b): encoding noise variance versus bit width.

Regenerates the two series of Fig. 1(b) (normalised noise variance of bit
slicing and thermometer coding for 1..8 information bits), validates them
against a Monte-Carlo crossbar simulation, and benchmarks the analytic
computation plus one simulated pulse-train MVM.
"""

import numpy as np
import pytest

from benchmarks.conftest import emit_report
from repro.crossbar import CrossbarArray, CrossbarConfig, GaussianReadNoise, ThermometerEncoder, pulsed_mvm
from repro.experiments.fig1b import assemble_fig1b, fig1b_grid
from repro.experiments.runner import run_grid
from repro.tensor.random import RandomState


def _fig1b(**grid_kwargs):
    grid = fig1b_grid(**grid_kwargs)
    return assemble_fig1b(grid, run_grid(grid).results)


@pytest.fixture(scope="module")
def fig1b_result():
    return _fig1b(bit_range=range(1, 9), monte_carlo_bits=(2, 3), num_trials=200, seed=0)


def _format_report(result) -> str:
    lines = [
        "Paper reference: Fig. 1(b) — noise variation vs number of bits",
        "(values normalised to the 1-bit / single-pulse baseline = 1.0)",
        "",
        result.format_table(),
        "",
        "Monte-Carlo validation (simulated crossbar + encoder):",
    ]
    for scheme, points in result.monte_carlo.items():
        for bits, value in points.items():
            lines.append(f"  {scheme:12s} b={bits}: simulated normalised var = {value:.4f}")
    lines += [
        "",
        "Expected shape (paper): thermometer coding is strictly more robust than",
        "bit slicing for every bit width > 1, and both variances fall as the",
        "number of pulses grows.",
    ]
    return "\n".join(lines)


def test_fig1b_noise_variance(benchmark, fig1b_result, capsys, results_dir):
    # Benchmark the analytic series generation (the cheap, repeatable kernel).
    benchmark(lambda: _fig1b(bit_range=range(1, 9), monte_carlo_bits=(), seed=0))

    result = fig1b_result
    # Shape assertions mirroring the paper's claims.
    assert result.thermometer[0] == pytest.approx(1.0)
    assert result.bit_slicing[0] == pytest.approx(1.0)
    for slicing, thermometer in zip(result.bit_slicing[1:], result.thermometer[1:]):
        assert thermometer < slicing
    assert all(np.diff(result.thermometer) < 0)
    # Monte-Carlo agrees with the closed form within sampling error.
    assert result.monte_carlo["thermometer"][3] == pytest.approx(result.thermometer[2], rel=0.35)

    emit_report(capsys, results_dir, "fig1b_noise_variance", _format_report(result))


def test_fig1b_pulsed_mvm_throughput(benchmark):
    """Micro-benchmark: one 8-pulse thermometer MVM on a 128x128 noisy tile."""
    rng = RandomState(0)
    weights = np.where(rng.uniform(size=(128, 128)) < 0.5, -1.0, 1.0)
    crossbar = CrossbarArray(
        weights, config=CrossbarConfig(noise=GaussianReadNoise(1.0)), rng=rng
    )
    values = rng.choice(np.linspace(-1, 1, 9), size=(32, 128))
    encoder = ThermometerEncoder(8)

    result = benchmark(lambda: pulsed_mvm(crossbar, values, encoder))
    assert result.shape == (32, 128)
