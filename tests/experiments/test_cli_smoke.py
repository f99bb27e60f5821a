"""CI smoke tests: the CLI and the benchmark-gate checker must run clean.

Fast (< seconds) subprocess checks wired into the ``-m "not slow"`` loop,
so a broken import chain, a CLI regression, or a broken gate checker is
caught before the slow suites run.  The checker runs on fixture artifacts
here; ``benchmarks/test_bench_gates.py`` checks the committed numbers.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(REPO_ROOT, "src")
GATE_CHECKER = os.path.join(REPO_ROOT, "benchmarks", "check_bench_gates.py")


def _run(args, **env_extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_extra)
    return subprocess.run(
        args, capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=120
    )


def test_experiments_list_runs_clean():
    result = _run([sys.executable, "-m", "repro.experiments", "list"])
    assert result.returncode == 0, result.stderr
    for identifier in ("fig1b", "fig2", "table1", "table2", "ablation_gamma"):
        assert identifier in result.stdout


def test_experiments_gc_dry_run_runs_clean(tmp_path):
    result = _run(
        [sys.executable, "-m", "repro.experiments", "gc", "--dry-run"],
        REPRO_CACHE_DIR=str(tmp_path),
    )
    assert result.returncode == 0, result.stderr
    assert "live spec hash" in result.stdout


def _gate_artifacts(directory, below_gate=None):
    """One artifact per required name, each clearing a 3x gate except ``below_gate``."""
    from benchmarks.check_bench_gates import REQUIRED_ARTIFACTS

    for name in REQUIRED_ARTIFACTS:
        speedup = 2.0 if name == below_gate else 4.0
        record = {
            "samples": 3,
            "a_s_samples": [speedup] * 3,
            "b_s_samples": [1.0] * 3,
            "speedup_samples": [speedup] * 3,
            "speedup": speedup,
            "speedup_iqr": 0.0,
            "blas_threads": 1,
            "min_required_speedup": 3.0,
            "workload": {"compute_dtype": "float64"},
        }
        (directory / name).write_text(json.dumps(record), encoding="utf-8")
    return str(directory)


def test_check_bench_gates_runs_clean(tmp_path):
    result = _run([sys.executable, GATE_CHECKER, _gate_artifacts(tmp_path)])
    assert result.returncode == 0, result.stdout + result.stderr
    assert "all benchmark gates passed" in result.stdout


def test_check_bench_gates_fails_an_artifact_under_its_gate(tmp_path):
    result = _run(
        [sys.executable, GATE_CHECKER, _gate_artifacts(tmp_path, below_gate="BENCH_batch.json")]
    )
    assert result.returncode != 0
    assert "BENCH_batch.json: recorded speedup 2.00x below gate 3.00x" in result.stdout


def test_distributed_worker_help_runs_clean():
    result = _run([sys.executable, "-m", "repro.distributed", "--help"])
    assert result.returncode == 0, result.stderr
    for flag in ("--experiments", "--specs", "--store", "--ttl", "--shard-index"):
        assert flag in result.stdout


def test_experiments_work_requires_a_suite():
    result = _run([sys.executable, "-m", "repro.experiments", "work"])
    assert result.returncode != 0
    assert "required" in result.stderr and "ID" in result.stderr


def test_experiments_merge_runs_clean(tmp_path):
    source = tmp_path / "src" / "results" / "selftest"
    source.mkdir(parents=True)
    payload = {"format": 1, "spec": {"experiment": "selftest"}, "result": {"v": 1}, "created": 0.0}
    (source / "aaaa.json").write_text(json.dumps(payload))
    result = _run(
        [
            sys.executable, "-m", "repro.experiments", "merge",
            str(tmp_path / "src"), "--into", str(tmp_path / "dst"),
        ]
    )
    assert result.returncode == 0, result.stderr
    assert "copied 1 result(s)" in result.stdout
    assert os.path.exists(tmp_path / "dst" / "results" / "selftest" / "aaaa.json")


def test_experiments_report_advertises_follow():
    # --follow exits only on suite completion, so the streaming behaviour
    # itself is covered in-process by tests/distributed; here we only
    # guard the CLI wiring.
    result = _run([sys.executable, "-m", "repro.experiments", "report", "--help"])
    assert result.returncode == 0, result.stderr
    assert "--follow" in result.stdout
    assert "--interval" in result.stdout
