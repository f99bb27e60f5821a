"""Benchmark A1 — ablation: thermometer vs bit-slicing encoding, end to end.

Section II-B of the paper analyses the two binary encodings analytically;
this ablation carries the comparison through the full network: the same
pre-trained VGG9 is evaluated with per-layer accumulated noise set according
to each encoding's closed-form variance for the same carried information.
"""

import pytest

from benchmarks.conftest import emit_report
from repro.experiments.ablations import assemble_encoding_ablation, encoding_ablation_grid
from repro.experiments.runner import run_grid


@pytest.fixture(scope="module")
def encoding_result(bundle):
    # The middle and severe noise levels are where the encodings separate.
    grid = encoding_ablation_grid(bundle.profile, sigmas=bundle.profile.sigmas[1:])
    return assemble_encoding_ablation(grid, run_grid(grid, bundle=bundle).results, bundle)


def _format_report(result, profile) -> str:
    lines = [
        "Ablation A1 — end-to-end encoding comparison (paper Section II-B)",
        f"Profile: {profile.name} | activation levels = {result.levels}",
        "",
        f"{'encoding':<14} {'sigma':>6} {'accumulated noise std':>22} {'accuracy %':>11}",
    ]
    for row in result.rows:
        lines.append(
            f"{row.encoding:<14} {row.sigma:>6.1f} {row.effective_noise_std:>22.3f} "
            f"{row.accuracy:>11.2f}"
        )
    lines += [
        "",
        "Expected shape (paper): for the same information, thermometer coding",
        "accumulates less noise than bit slicing, so the network keeps a higher",
        "accuracy — the reason the paper adopts thermometer coding as baseline.",
    ]
    return "\n".join(lines)


def test_ablation_encoding_scheme(benchmark, bundle, encoding_result, capsys, results_dir):
    profile = bundle.profile
    result = encoding_result

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
                noise_sigma=profile.sigmas[1],
                pulses=PulseSchedule.uniform(layers, profile.base_pulses),
            ),
        ),
        rounds=2,
        iterations=1,
    )

    for sigma in profile.sigmas[1:]:
        thermometer = result.accuracy("thermometer", sigma)
        bit_slicing = result.accuracy("bit_slicing", sigma)
        # Thermometer coding must not be worse (within noise fluctuation).
        assert thermometer >= bit_slicing - 2.0
    # At the severe level the gap must be clearly visible.
    severe = profile.sigmas[-1]
    assert result.accuracy("thermometer", severe) > result.accuracy("bit_slicing", severe)

    emit_report(capsys, results_dir, "ablation_encoding", _format_report(result, profile))
