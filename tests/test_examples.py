"""Smoke tests: the example scripts import cleanly and the quick ones run.

The others are only import-checked here; ``make examples`` (part of
``make ci`` and of CI's test job) runs all of them end to end.
"""

import importlib.util
import io
import os
import sys

import pytest

EXAMPLES_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples"
)

ALL_EXAMPLES = [
    "quickstart",
    "pipeline_verification",
    "queue_invariant",
    "translation_validation",
    "encoding_comparison",
    "smtlib_interop",
]


def load_example(name):
    path = os.path.join(EXAMPLES_DIR, name + ".py")
    spec = importlib.util.spec_from_file_location("example_" + name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    @pytest.mark.parametrize("name", ALL_EXAMPLES)
    def test_imports_and_has_main(self, name):
        module = load_example(name)
        assert callable(module.main)

    @pytest.mark.parametrize("name", ["quickstart", "smtlib_interop"])
    def test_quick_examples_run(self, name):
        module = load_example(name)
        old_stdout = sys.stdout
        sys.stdout = io.StringIO()
        try:
            module.main()
            output = sys.stdout.getvalue()
        finally:
            sys.stdout = old_stdout
        assert "VALID" in output or "unsat" in output
