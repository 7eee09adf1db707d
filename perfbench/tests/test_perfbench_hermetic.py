"""A benchmark run leaves the checkout as it found it, and a directory
holding only the benchmark is refused without a result."""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

RUN = os.path.join(BENCH, "run.py")


def _git_status():
    try:
        out = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=all"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=60,
        )
    except FileNotFoundError:
        return None
    return out.stdout if out.returncode == 0 else None


@pytest.mark.parametrize("workload", ["cube", "serve", "smtlib", "suite"])
def test_smallest_pass_leaves_git_status_unchanged(workload):
    before = _git_status()
    if before is None:
        pytest.skip("not a git checkout")
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stdout
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert _git_status() == before


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=180,
    )
    assert out.returncode != 0
    assert "{" not in out.stdout
