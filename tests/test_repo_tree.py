"""The checkout itself: git tracks no file that ``.gitignore`` excludes.

A tracked build product (an ``*.egg-info/`` directory, a report) goes
stale silently, because the ignore rules hide its changes from
``git status``.
"""

import os
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_no_tracked_file_is_ignored():
    try:
        listing = subprocess.run(
            ["git", "ls-files", "-ci", "--exclude-standard"],
            cwd=ROOT,
            capture_output=True,
            check=True,
            text=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout")
    assert listing.splitlines() == []
