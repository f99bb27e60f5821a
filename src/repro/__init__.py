"""repro — reproduction of "Gradient-based Bit Encoding Optimization for
Noise-Robust Binary Memristive Crossbar" (DATE 2022).

The package is organised bottom-up:

* :mod:`repro.tensor`, :mod:`repro.nn`, :mod:`repro.optim`, :mod:`repro.data`
  — a from-scratch numpy deep-learning substrate (autograd, layers,
  optimisers, data pipeline);
* :mod:`repro.quant` — binary weights and multi-level activations;
* :mod:`repro.crossbar` — the binary memristive crossbar simulator with
  input bit encodings and analog noise models;
* :mod:`repro.backend` — pluggable simulation engines executing the noisy
  pulse-train reads: a loop-per-pulse/loop-per-tile ``ReferenceEngine``
  (validation oracle) and the default ``VectorizedEngine`` which batches
  pulses x tiles x batch into a few matmuls with one batched noise draw;
* :mod:`repro.sim` — simulation state as an immutable value: the frozen,
  content-hashable :class:`~repro.sim.SimConfig` (engine, forward mode,
  pulses, noise, PLA rounding, seed policy), applied atomically and
  reversibly through :class:`~repro.sim.Session` / ``configure``, with one
  documented engine-resolution precedence rule;
* :mod:`repro.core` — the paper's contribution: PLA, encoded crossbar
  layers, GBO and the NIA baseline;
* :mod:`repro.models`, :mod:`repro.training`, :mod:`repro.experiments` —
  the VGG9 evaluation network, training recipes and the per-table/figure
  experiment grids on the scenario runner;
* :mod:`repro.api` — the pipeline as a composable facade: ``pretrain``,
  ``calibrate_pla``, ``run_gbo``, ``run_nia``, ``evaluate``, each taking
  ``(state, SimConfig)`` and returning artifacts.

Quick start::

    import repro
    from repro import SimConfig

    state = repro.pretrain("smoke")           # cached per profile
    noisy = SimConfig.for_profile(state.profile, mode="noisy",
                                  noise_sigma=6.0, pulses=8)

    print(repro.calibrate_pla(state).format_table())   # PLA error sweep
    baseline = repro.evaluate(state, noisy)            # 8-pulse baseline
    gbo = repro.run_gbo(state, noisy, gamma=1e-3)      # learn the schedule
    tuned = repro.evaluate(state, noisy.with_changes(pulses=gbo.schedule))
    print(baseline.accuracy, "->", tuned.accuracy)

See ``examples/quickstart.py`` for a complete runnable walk-through.
"""

from repro.version import __version__

#: Names resolved lazily (PEP 562) from :mod:`repro.sim` and :mod:`repro.api`,
#: so ``import repro`` loads no numpy: worker entry points run it before they
#: pin BLAS threads (:mod:`repro.worker_env`).
_SIM_EXPORTS = ("SimConfig", "Session", "apply_config", "configure", "resolve_engine_name")
_API_EXPORTS = (
    "PipelineState",
    "EvaluationResult",
    "GBOArtifact",
    "NIAArtifact",
    "PLACalibration",
    "pretrain",
    "calibrate_pla",
    "run_gbo",
    "run_nia",
    "evaluate",
)

__all__ = ["__version__", *_SIM_EXPORTS, *_API_EXPORTS]


def __getattr__(name):
    if name in _SIM_EXPORTS:
        from repro import sim

        return getattr(sim, name)
    if name in _API_EXPORTS:
        from repro import api

        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
