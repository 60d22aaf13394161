"""``benchmarks/run_benchmarks.py`` records which code each history line timed."""

import importlib.util
import os
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

pytestmark = pytest.mark.skipif(shutil.which("git") is None, reason="needs git")


def load_runner():
    spec = importlib.util.spec_from_file_location(
        "run_benchmarks", ROOT / "benchmarks" / "run_benchmarks.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def git(repo: Path, *args: str) -> str:
    env = dict(
        os.environ,
        GIT_AUTHOR_NAME="bench",
        GIT_AUTHOR_EMAIL="bench@example.com",
        GIT_COMMITTER_NAME="bench",
        GIT_COMMITTER_EMAIL="bench@example.com",
    )
    return subprocess.run(
        ["git", *args], cwd=repo, env=env, check=True, capture_output=True, text=True
    ).stdout.strip()


def test_a_dirty_tree_is_not_stamped_with_its_parents_id(tmp_path):
    current_commit = load_runner()._current_commit
    git(tmp_path, "init", "-q")
    (tmp_path / "a.txt").write_text("one\n")
    git(tmp_path, "add", "a.txt")
    git(tmp_path, "commit", "-q", "-m", "one")
    head = git(tmp_path, "rev-parse", "--short", "HEAD")
    assert current_commit(str(tmp_path)) == head
    (tmp_path / "a.txt").write_text("two\n")
    assert current_commit(str(tmp_path)) == head + "-dirty"
    (tmp_path / "b.txt").write_text("new\n")  # untracked files count too
    git(tmp_path, "checkout", "-q", "a.txt")
    assert current_commit(str(tmp_path)) == head + "-dirty"


def test_outside_a_repository_there_is_no_commit(tmp_path, monkeypatch):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    assert load_runner()._current_commit(str(tmp_path)) is None
