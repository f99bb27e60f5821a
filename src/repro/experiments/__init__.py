"""The paper's experiments: one module per table/figure.

Each module defines a grid factory (``table1_grid`` etc.) on the *scenario
runner* (:mod:`repro.experiments.runner`) — one spec per (method, noise
level, gamma, ...) cell — and an assembler (``assemble_table1`` etc.) that
folds the grid's results into a plain dataclass (rows of numbers plus the
matching paper values where applicable), so the benchmark harness, the
examples and the markdown reports of :mod:`repro.experiments.report` all
render the same results.

An experiment runs one way: grid → :func:`~repro.experiments.runner.run_grid`
(serially as the bit-exact oracle, on local lease-based worker processes, or
resumed from the content-addressed result store) → assembler.  The registry
(:mod:`repro.experiments.registry`) indexes every experiment,
:func:`run_experiment` runs a registered one, and the
``python -m repro.experiments`` CLI drives it.

Profiles (``smoke`` / ``fast`` / ``paper``) control the scale of the
underlying model and dataset; see :mod:`repro.experiments.profiles`.
"""

from repro.experiments.profiles import ExperimentProfile, get_profile, PROFILES
from repro.experiments.common import (
    ExperimentBundle,
    get_pretrained_bundle,
    get_cache_dir,
    build_model,
    build_loaders,
)
from repro.experiments.fig1b import Fig1bResult
from repro.experiments.fig2 import Fig2Result
from repro.experiments.table1 import Table1Result, Table1Row
from repro.experiments.table2 import Table2Result, Table2Row
from repro.experiments.registry import (
    EXPERIMENTS,
    ExperimentSpec,
    describe_experiments,
    run_experiment,
)

__all__ = [
    "ExperimentProfile",
    "get_profile",
    "PROFILES",
    "ExperimentBundle",
    "get_pretrained_bundle",
    "get_cache_dir",
    "build_model",
    "build_loaders",
    "Fig1bResult",
    "Fig2Result",
    "Table1Result",
    "Table1Row",
    "Table2Result",
    "Table2Row",
    "EXPERIMENTS",
    "ExperimentSpec",
    "describe_experiments",
    "run_experiment",
]
