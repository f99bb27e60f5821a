"""Experiment E1 — Fig. 1(b): encoding noise variance versus bit width.

Reproduces the analytic curves of Fig. 1(b) (normalised noise variance of
bit slicing vs thermometer coding as the number of information bits grows)
and cross-checks a few points with a Monte-Carlo simulation of the actual
crossbar + encoder stack.

Expressed as a grid on the scenario runner: one scenario per bit width
(each computes both analytic values, plus the Monte-Carlo validation when
requested for that width), assembled back into :class:`Fig1bResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence

from repro.crossbar.analysis import (
    bit_slicing_noise_variance,
    monte_carlo_noise_variance,
    thermometer_noise_variance,
)
from repro.crossbar.encoding import BitSlicingEncoder, ThermometerEncoder
from repro.tensor.random import RandomState


@dataclass
class Fig1bResult:
    """Analytic series plus Monte-Carlo spot checks."""

    bits: List[float]
    bit_slicing: List[float]
    thermometer: List[float]
    monte_carlo: Dict[str, Dict[int, float]] = field(default_factory=dict)

    def as_rows(self) -> List[Dict[str, float]]:
        """Rows suitable for tabular printing."""
        rows = []
        for index, bit in enumerate(self.bits):
            rows.append(
                {
                    "bits": bit,
                    "bit_slicing": self.bit_slicing[index],
                    "thermometer": self.thermometer[index],
                }
            )
        return rows

    def format_table(self) -> str:
        """Human-readable rendering of the figure's series."""
        lines = ["bits | bit-slicing var (norm) | thermometer var (norm)"]
        for row in self.as_rows():
            lines.append(
                f"{int(row['bits']):4d} | {row['bit_slicing']:22.4f} | {row['thermometer']:21.4f}"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Scenario grid
# ---------------------------------------------------------------------------
def fig1b_grid(
    bit_range: Sequence[int] = range(1, 9),
    monte_carlo_bits: Sequence[int] = (2, 3),
    sigma: float = 1.0,
    num_trials: int = 200,
    seed: int = 0,
    engine=None,
):
    """One scenario per bit width of the Fig. 1(b) sweep.

    The Monte-Carlo validation drives real noisy crossbar reads, whose RNG
    consumption is engine-dependent, so the resolved engine is part of every
    spec, following the one precedence rule of
    :func:`repro.sim.resolve_engine_name` — results simulated under one
    backend never answer the other's store lookups.
    """
    from repro.experiments.runner.spec import ScenarioGrid, ScenarioSpec
    from repro.sim import resolve_engine_name

    engine = resolve_engine_name(engine, None)
    monte_carlo_bits = {int(b) for b in monte_carlo_bits}
    specs = tuple(
        ScenarioSpec.create(
            experiment="fig1b",
            method=f"bits{int(bits)}",
            seed=seed,
            engine=engine,
            bits=int(bits),
            sigma_pulse=float(sigma),
            monte_carlo=int(bits) in monte_carlo_bits,
            num_trials=int(num_trials),
        )
        for bits in bit_range
    )
    return ScenarioGrid(name="fig1b", specs=specs)


def execute_fig1b_scenario(ctx) -> Dict[str, Any]:
    """Analytic (and optionally Monte-Carlo) noise variance at one bit width."""
    spec = ctx.spec
    bits = int(spec.param("bits"))
    sigma = float(spec.param("sigma_pulse", 1.0))
    # Fig. 1(b) normalises to the 1-bit / single-pulse baseline.
    norm = bit_slicing_noise_variance(1)
    result: Dict[str, Any] = {
        "bits": bits,
        "bit_slicing": bit_slicing_noise_variance(bits) / norm,
        "thermometer": thermometer_noise_variance(2**bits - 1) / norm,
    }
    if spec.param("monte_carlo", False):
        num_trials = int(spec.param("num_trials", 200))
        rng = RandomState(ctx.scenario_seed())
        engine = ctx.engine_name()
        baseline = bit_slicing_noise_variance(1, sigma=sigma)
        slicing_var = monte_carlo_noise_variance(
            BitSlicingEncoder(bits), sigma=sigma, num_trials=num_trials, rng=rng,
            engine=engine,
        )
        thermo_var = monte_carlo_noise_variance(
            ThermometerEncoder(2**bits - 1), sigma=sigma, num_trials=num_trials,
            rng=rng, engine=engine,
        )
        result["monte_carlo"] = {
            "bit_slicing": slicing_var / baseline,
            "thermometer": thermo_var / baseline,
        }
    return result


def assemble_fig1b(grid, results: Mapping[str, Mapping[str, Any]]) -> Fig1bResult:
    """Fold per-bit scenario results back into the figure's series."""
    ordered = sorted(
        (results[spec.hash] for spec in grid), key=lambda row: row["bits"]
    )
    monte_carlo: Dict[str, Dict[int, float]] = {"bit_slicing": {}, "thermometer": {}}
    for row in ordered:
        if "monte_carlo" in row:
            for scheme in ("bit_slicing", "thermometer"):
                monte_carlo[scheme][int(row["bits"])] = row["monte_carlo"][scheme]
    return Fig1bResult(
        bits=[float(row["bits"]) for row in ordered],
        bit_slicing=[row["bit_slicing"] for row in ordered],
        thermometer=[row["thermometer"] for row in ordered],
        monte_carlo=monte_carlo,
    )
