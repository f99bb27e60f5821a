"""Experiment drivers: one module per table/figure of the paper.

Every driver returns a plain dataclass (rows of numbers plus the matching
paper values where applicable) so the benchmark harness, the examples and
the markdown reports of :mod:`repro.experiments.report` can all render the
same results.

All drivers are grids on the *scenario runner*
(:mod:`repro.experiments.runner`): one spec per (method, noise level,
gamma, ...) cell, executed serially (the bit-exact oracle), across a worker
pool, or resumed from the content-addressed result store.  The registry
(:mod:`repro.experiments.registry`) indexes every experiment and the
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
from repro.experiments.fig1b import run_fig1b, Fig1bResult
from repro.experiments.fig2 import run_fig2, Fig2Result
from repro.experiments.table1 import run_table1, Table1Result, Table1Row
from repro.experiments.table2 import run_table2, Table2Result, Table2Row
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
    "run_fig1b",
    "Fig1bResult",
    "run_fig2",
    "Fig2Result",
    "run_table1",
    "Table1Result",
    "Table1Row",
    "run_table2",
    "Table2Result",
    "Table2Row",
    "EXPERIMENTS",
    "ExperimentSpec",
    "describe_experiments",
    "run_experiment",
]
