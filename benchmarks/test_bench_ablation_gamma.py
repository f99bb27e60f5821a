"""Benchmark A3 — ablation: the GBO latency/accuracy trade-off (Eq. 6).

The paper reports two GBO operating points per noise level, obtained with
two settings of the latency weight gamma.  This ablation sweeps gamma and
exposes the Pareto front between average pulse count (latency) and accuracy,
verifying that gamma actually controls the trade-off.
"""

import pytest

from benchmarks.conftest import emit_report
from repro.experiments import run_experiment


@pytest.fixture(scope="module")
def gamma_rows(bundle):
    # The registered grid sweeps gamma_long, gamma_short and 10 * gamma_short.
    return run_experiment("ablation_gamma", bundle=bundle)[0]


def _format_report(rows, profile) -> str:
    lines = [
        "Ablation A3 — GBO latency/accuracy trade-off (paper Eq. 6)",
        f"Profile: {profile.name} | sigma = {profile.sigmas[len(profile.sigmas) // 2]}",
        "",
        f"{'gamma':>10} {'avg pulses':>11} {'accuracy %':>11}  schedule",
    ]
    for row in rows:
        lines.append(
            f"{row.gamma:>10.4g} {row.average_pulses:>11.2f} {row.accuracy:>11.2f}  {row.schedule}"
        )
    lines += [
        "",
        "Expected shape: larger gamma pushes GBO towards shorter (cheaper, noisier)",
        "schedules; the paper's two GBO rows per noise level are two samples of",
        "this trade-off curve.",
    ]
    return "\n".join(lines)


def test_ablation_gamma_tradeoff(benchmark, bundle, gamma_rows, capsys, results_dir):
    profile = bundle.profile
    rows = gamma_rows

    # Benchmark kernel: a single GBO optimisation epoch on the GBO subset.
    from repro.core.gbo import GBOConfig, GBOTrainer
    from repro.core.search_space import PulseScalingSpace
    from repro.sim import SimConfig, apply_config

    def one_gbo_epoch():
        apply_config(bundle.model, SimConfig(noise_sigma=profile.sigmas[1]))
        trainer = GBOTrainer(
            bundle.model,
            GBOConfig(space=PulseScalingSpace(), gamma=profile.gamma_short,
                      learning_rate=profile.gbo_lr, epochs=1),
        )
        trainer.train(bundle.gbo_loader)
        bundle.model.requires_grad_(True)

    benchmark.pedantic(one_gbo_epoch, rounds=1, iterations=1)

    # Larger gamma must not select longer schedules (allow small noise slack).
    assert rows[0].gamma < rows[-1].gamma
    assert rows[-1].average_pulses <= rows[0].average_pulses + 1.0
    # Every schedule lives in the search space.
    for row in rows:
        assert all(p in (4, 6, 8, 10, 12, 14, 16) for p in row.schedule)

    emit_report(capsys, results_dir, "ablation_gamma_tradeoff", _format_report(rows, profile))
