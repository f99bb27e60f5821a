"""``repro.sim`` — simulation state as an immutable, hashable value.

The public surface is three names plus the engine-resolution rule:

* :class:`SimConfig` — a frozen, content-hashable description of how a model
  simulates the crossbar (engine, forward mode, pulses, noise level and
  convention, PLA rounding, seed policy);
* :class:`Session` — apply a config to a model (or a
  single encoded layer) atomically for the duration of a ``with`` block,
  restoring the previous state on exit;
* :func:`apply_config` — the one-way variant used where state is
  intentionally persistent (e.g. the scenario runner's per-scenario reset);
* :func:`resolve_engine_name` — THE engine-resolution precedence rule that
  replaced the four competing selection mechanisms (see
  :mod:`repro.sim.config` for the rule's definition).

``SimConfig(dtype=...)`` additionally scopes the process compute-dtype
policy (:mod:`repro.tensor.dtype`): float64 is the bit-identical default,
float32 the opt-in raw-speed path; a :class:`Session` restores the previous
policy on exit.  The dtype joins the hashed identity only when set, so every
pre-existing config hash is unchanged.
"""

from repro.sim.config import (
    CONFIG_VERSION,
    FORWARD_MODES,
    PLA_MODES,
    SimConfig,
    engine_name,
    resolve_engine_name,
)
from repro.sim.multi import MultiSession
from repro.sim.session import (
    ConcurrentDtypeError,
    Session,
    apply_config,
    capture_sim_state,
    restore_sim_state,
)

__all__ = [
    "CONFIG_VERSION",
    "FORWARD_MODES",
    "PLA_MODES",
    "ConcurrentDtypeError",
    "MultiSession",
    "SimConfig",
    "Session",
    "apply_config",
    "capture_sim_state",
    "engine_name",
    "resolve_engine_name",
    "restore_sim_state",
]
