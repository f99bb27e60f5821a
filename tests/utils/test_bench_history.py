"""The measurement harness of the gated benchmarks and the git state each
history line records (``benchmarks/conftest.py``)."""

from __future__ import annotations

import json
import subprocess
import types

import pytest

from benchmarks import conftest as bench
from repro.worker_env import blas_threads


def _git(root, *args):
    subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.invalid", *args],
        cwd=root, check=True, capture_output=True,
    )


@pytest.fixture
def checkout(tmp_path, monkeypatch):
    """A committed checkout with the three measured trees and a results dir."""
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    root = tmp_path / "repo"
    for name in ("src/repro/a.py", "tests/test_a.py", "benchmarks/b.py", "benchmarks/results/r.json"):
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("x = 1\n")
    (root / "notes.md").write_text("notes\n")
    _git(root, "init", "-q")
    _git(root, "add", "-A")
    _git(root, "commit", "-q", "-m", "initial")
    return root


def test_clean_checkout_is_not_dirty(checkout):
    assert bench._dirty(str(checkout)) is False
    assert len(bench._commit(str(checkout))) == 40


def test_results_and_other_files_do_not_make_it_dirty(checkout):
    (checkout / "benchmarks/results/r.json").write_text("{}\n")
    (checkout / "benchmarks/results/new.json").write_text("{}\n")
    (checkout / "notes.md").write_text("edited\n")
    assert bench._dirty(str(checkout)) is False


@pytest.mark.parametrize(
    "change",
    ["src/repro/a.py", "tests/test_a.py", "benchmarks/b.py", "src/repro/untracked.py"],
)
def test_modified_or_untracked_measured_file_is_dirty(checkout, change):
    (checkout / change).write_text("x = 2\n")
    assert bench._dirty(str(checkout)) is True


def test_staged_change_is_dirty(checkout):
    (checkout / "tests/test_a.py").write_text("x = 3\n")
    _git(checkout, "add", "tests/test_a.py")
    assert bench._dirty(str(checkout)) is True


def test_outside_git_the_run_is_dirty_and_the_commit_unknown(tmp_path, monkeypatch):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    plain = tmp_path / "plain"
    plain.mkdir()
    assert bench._dirty(str(plain)) is True
    assert bench._commit(str(plain)) == "unknown"


def _fake_clock_legs(monkeypatch, a_durations, b_durations):
    """Legs that advance a fake clock by their next duration; the call log."""
    now = [0.0]
    monkeypatch.setattr(bench, "time", types.SimpleNamespace(perf_counter=lambda: now[0]))
    calls = []

    def leg(name, durations):
        def run():
            calls.append(name)
            now[0] += durations[sum(1 for call in calls if call == name) - 1]
        return run

    return leg("a", a_durations), leg("b", b_durations), calls


def test_alternating_pairs_alternates_and_reports_median_and_iqr(monkeypatch):
    leg_a, leg_b, calls = _fake_clock_legs(monkeypatch, [4.0, 6.0, 9.0, 8.0], [2.0, 2.0, 3.0, 1.0])
    pairs = bench.alternating_pairs(leg_a, leg_b, 4)
    assert calls == ["a", "b", "b", "a", "a", "b", "b", "a"]
    assert pairs["a_s_samples"] == [4.0, 6.0, 9.0, 8.0]
    assert pairs["b_s_samples"] == [2.0, 2.0, 3.0, 1.0]
    assert pairs["speedup_samples"] == [2.0, 3.0, 3.0, 8.0]
    assert pairs["samples"] == 4
    # Median of the ratios; IQR is the 75th minus the 25th percentile,
    # linearly interpolated: 4.25 - 2.75.
    assert pairs["speedup"] == 3.0
    assert pairs["speedup_iqr"] == pytest.approx(1.5)


@pytest.mark.skipif(blas_threads() is None, reason="numpy's bundled OpenBLAS was not found")
def test_alternating_pairs_runs_on_a_one_thread_pool_and_restores_it():
    before = blas_threads()
    seen = []
    pairs = bench.alternating_pairs(lambda: seen.append(blas_threads()), lambda: None, 3)
    assert pairs["blas_threads"] == 1 and seen == [1, 1, 1]
    assert blas_threads() == before


def test_history_line_records_dirty_and_the_pairs(tmp_path):
    pairs = {
        "samples": 3, "a_s_samples": [2.0, 2.0, 2.0], "b_s_samples": [1.0, 1.0, 1.0],
        "speedup_samples": [2.0, 2.0, 2.0], "speedup": 2.0, "speedup_iqr": 0.0,
        "blas_threads": 1,
    }
    bench.write_bench_artifact(str(tmp_path), "demo", {**pairs, "min_required_speedup": 1.5})
    line = json.loads((tmp_path / bench.HISTORY_FILE).read_text().splitlines()[-1])
    assert isinstance(line["dirty"], bool)
    assert line["commit"] and line["speedup"] == 2.0 and line["gate"] == 1.5
    assert line["blas_threads"] == 1 and line["samples"] == 3
    assert line["speedup_samples"] == [2.0, 2.0, 2.0] and line["speedup_iqr"] == 0.0


@pytest.mark.parametrize(
    "change",
    [
        {"samples": 2, "a_s_samples": [2.0] * 2, "b_s_samples": [1.0] * 2,
         "speedup_samples": [2.0] * 2},
        {"speedup_iqr": None},
        {"a_s_samples": None},
        {"b_s_samples": [1.0]},
        {"blas_threads": None},
        {"blas_threads": 2},
    ],
)
def test_gate_check_refuses_an_artifact_without_the_pairs(tmp_path, change):
    from benchmarks.check_bench_gates import REQUIRED_ARTIFACTS, check_gates

    pairs = {
        "samples": 3, "a_s_samples": [2.0] * 3, "b_s_samples": [1.0] * 3,
        "speedup_samples": [2.0] * 3, "speedup": 2.0, "speedup_iqr": 0.0, "blas_threads": 1,
        "min_required_speedup": 1.5, "workload": {"compute_dtype": "float64"},
    }
    for name in REQUIRED_ARTIFACTS:
        (tmp_path / name).write_text(json.dumps(pairs))
    assert check_gates(str(tmp_path))[1] == []
    (tmp_path / REQUIRED_ARTIFACTS[0]).write_text(json.dumps({**pairs, **change}))
    failures = check_gates(str(tmp_path))[1]
    assert failures and all(failure.startswith(REQUIRED_ARTIFACTS[0]) for failure in failures)
