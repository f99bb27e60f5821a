"""The git state each benchmark history line records (``benchmarks/conftest.py``)."""

from __future__ import annotations

import json
import subprocess

import pytest

from benchmarks import conftest as bench


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


def test_history_line_records_dirty(tmp_path):
    bench.write_bench_artifact(str(tmp_path), "demo", {"speedup": 2.0, "min_required_speedup": 1.5})
    line = json.loads((tmp_path / bench.HISTORY_FILE).read_text().splitlines()[-1])
    assert isinstance(line["dirty"], bool)
    assert line["commit"] and line["speedup"] == 2.0 and line["gate"] == 1.5
