"""Latency / energy cost model for pulse-encoded crossbar inference.

The paper's GBO objective (Eq. 6) regularises the *number of pulses* because
every extra pulse is an extra crossbar read: one more DAC drive of every
active row, one more analog integration, and one more ADC conversion per
column.  This module turns a per-layer pulse schedule into concrete latency
and energy estimates with a simple, transparent first-order model, so the
"Avg. # pulses" column of Table I can also be read as nanoseconds and
nanojoules.

The defaults are order-of-magnitude figures typical of published ReRAM
crossbar macros (ISAAC-class designs); every parameter is configurable and
the model is linear, so relative comparisons between schedules (the thing the
paper cares about) are insensitive to the exact constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.schedule import PulseSchedule


@dataclass(frozen=True)
class CostModelConfig:
    """Per-event cost constants of the crossbar macro.

    Attributes
    ----------
    pulse_duration_ns:
        Duration of one binary input pulse (one analog read cycle).
    row_drive_energy_pj:
        Energy to drive one crossbar row for one pulse.
    adc_energy_pj:
        Energy of one column ADC conversion (one output, one pulse).
    tile_rows / tile_cols:
        Physical tile size used to count how many tiles a layer occupies.
    tile_static_energy_pj:
        Per-pulse static/peripheral energy of one active tile.
    """

    pulse_duration_ns: float = 50.0
    row_drive_energy_pj: float = 0.2
    adc_energy_pj: float = 2.0
    tile_rows: int = 128
    tile_cols: int = 128
    tile_static_energy_pj: float = 5.0

    def __post_init__(self) -> None:
        if self.pulse_duration_ns <= 0:
            raise ValueError("pulse_duration_ns must be positive")
        if min(self.tile_rows, self.tile_cols) <= 0:
            raise ValueError("tile dimensions must be positive")
        if min(self.row_drive_energy_pj, self.adc_energy_pj, self.tile_static_energy_pj) < 0:
            raise ValueError("energy constants must be non-negative")


@dataclass
class LayerCost:
    """Latency/energy of one encoded layer under a given pulse count."""

    name: str
    fan_in: int
    fan_out: int
    num_pulses: int
    num_tiles: int
    latency_ns: float
    energy_pj: float


@dataclass
class ScheduleCostReport:
    """Aggregate cost of a full per-layer pulse schedule."""

    layers: List[LayerCost] = field(default_factory=list)

    @property
    def total_latency_ns(self) -> float:
        """Sum of per-layer latencies (layers execute sequentially)."""
        return float(sum(layer.latency_ns for layer in self.layers))

    @property
    def total_energy_pj(self) -> float:
        """Sum of per-layer energies."""
        return float(sum(layer.energy_pj for layer in self.layers))

    @property
    def average_pulses(self) -> float:
        """Average pulse count across layers (the paper's latency proxy)."""
        if not self.layers:
            return 0.0
        return float(sum(layer.num_pulses for layer in self.layers)) / len(self.layers)

    def format_table(self) -> str:
        """Human-readable per-layer cost breakdown."""
        lines = [
            f"{'layer':<8} {'fan_in':>7} {'fan_out':>8} {'pulses':>7} {'tiles':>6} "
            f"{'latency (ns)':>13} {'energy (pJ)':>12}"
        ]
        for layer in self.layers:
            lines.append(
                f"{layer.name:<8} {layer.fan_in:>7d} {layer.fan_out:>8d} {layer.num_pulses:>7d} "
                f"{layer.num_tiles:>6d} {layer.latency_ns:>13.1f} {layer.energy_pj:>12.1f}"
            )
        lines.append(
            f"{'total':<8} {'':>7} {'':>8} {'':>7} {'':>6} "
            f"{self.total_latency_ns:>13.1f} {self.total_energy_pj:>12.1f}"
        )
        return "\n".join(lines)


class CrossbarCostModel:
    """Estimates inference latency and energy of crossbar-mapped layers."""

    def __init__(self, config: Optional[CostModelConfig] = None):
        self.config = config or CostModelConfig()

    # ------------------------------------------------------------------
    # Per-layer primitives
    # ------------------------------------------------------------------
    def tiles_for(self, fan_in: int, fan_out: int) -> int:
        """Number of physical tiles needed by a ``fan_out x fan_in`` matrix."""
        cfg = self.config
        row_tiles = -(-fan_in // cfg.tile_rows)
        col_tiles = -(-fan_out // cfg.tile_cols)
        return row_tiles * col_tiles

    def layer_latency_ns(self, num_pulses: int) -> float:
        """Read latency of one layer: pulses are streamed sequentially."""
        if num_pulses < 1:
            raise ValueError(f"num_pulses must be positive, got {num_pulses}")
        return num_pulses * self.config.pulse_duration_ns

    def layer_energy_pj(self, fan_in: int, fan_out: int, num_pulses: int) -> float:
        """Energy of one layer read: row drives + ADC conversions + tile overhead."""
        if num_pulses < 1:
            raise ValueError(f"num_pulses must be positive, got {num_pulses}")
        cfg = self.config
        tiles = self.tiles_for(fan_in, fan_out)
        row_energy = fan_in * cfg.row_drive_energy_pj
        adc_energy = fan_out * cfg.adc_energy_pj
        static_energy = tiles * cfg.tile_static_energy_pj
        return num_pulses * (row_energy + adc_energy + static_energy)

    # ------------------------------------------------------------------
    # Model-level report
    # ------------------------------------------------------------------
    def schedule_cost(self, model, schedule: Optional[PulseSchedule] = None) -> ScheduleCostReport:
        """Cost report for a model's encoded layers under ``schedule``.

        Parameters
        ----------
        model:
            Model exposing ``encoded_layers()`` and ``encoded_layer_names()``.
        schedule:
            Per-layer pulse counts; defaults to the pulse counts currently
            configured on the model.
        """
        layers = list(model.encoded_layers())
        if schedule is None:
            schedule = PulseSchedule([layer.num_pulses for layer in layers])
        if len(schedule) != len(layers):
            raise ValueError(
                f"schedule has {len(schedule)} entries but the model exposes {len(layers)} "
                "encoded layers"
            )
        report = ScheduleCostReport()
        for name, layer, pulses in zip(model.encoded_layer_names(), layers, schedule):
            fan_in = layer.fan_in
            fan_out = getattr(layer, "out_channels", None) or getattr(layer, "out_features")
            report.layers.append(
                LayerCost(
                    name=name,
                    fan_in=fan_in,
                    fan_out=int(fan_out),
                    num_pulses=int(pulses),
                    num_tiles=self.tiles_for(fan_in, int(fan_out)),
                    latency_ns=self.layer_latency_ns(int(pulses)),
                    energy_pj=self.layer_energy_pj(fan_in, int(fan_out), int(pulses)),
                )
            )
        return report

    def compare_schedules(
        self, model, schedules: Dict[str, PulseSchedule]
    ) -> Dict[str, ScheduleCostReport]:
        """Cost reports for several named schedules of the same model."""
        return {name: self.schedule_cost(model, schedule) for name, schedule in schedules.items()}
