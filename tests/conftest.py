"""Pytest configuration: make tests/ importable for shared helpers, and
fail the run if it rewrites a tracked file."""

import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

sys.path.insert(0, os.path.dirname(__file__))


def _digest(path):
    try:
        with open(path, "rb") as fp:
            return hashlib.sha256(fp.read()).digest()
    except OSError:
        return None


def _tracked_digests():
    """``{path: sha256}`` for every file git tracks; ``None`` outside a git
    checkout."""
    try:
        listing = subprocess.run(
            ["git", "ls-files", "-z"],
            cwd=ROOT,
            capture_output=True,
            check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    return {
        path: _digest(os.path.join(ROOT, path))
        for path in listing.decode().split("\0")
        if path
    }


@pytest.fixture(scope="session", autouse=True)
def tracked_files_unchanged():
    """Tests write into temp dirs only: every tracked file must end the
    session with the content it started with."""
    before = _tracked_digests()
    yield
    if before is None:
        return
    changed = sorted(
        path
        for path, digest in before.items()
        if _digest(os.path.join(ROOT, path)) != digest
    )
    if changed:
        pytest.fail(
            "the test session rewrote tracked files: %s" % ", ".join(changed)
        )
