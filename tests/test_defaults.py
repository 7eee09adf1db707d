"""One configuration: HYBRID's SEP_THOLD and transitivity budget.

:mod:`repro.encodings.hybrid` is the only place the two settings are
written.  These tests pin that every entry point takes them from there,
that the paper's §4.1 procedure still selects the default SEP_THOLD on
this repository's sample, and that perfbench measures the same
configuration.
"""

import ast
import os

import pytest

from repro.cli import build_parser
from repro.encodings.hybrid import DEFAULT_SEP_THOLD, DEFAULT_TRANS_BUDGET
from repro.engine.compete import CompeteConfig
from repro.engine.contract import SolveRequest
from repro.experiments.threshold_exp import run_threshold_selection
from repro.logic.terms import TRUE
from repro.service.server import ServeConfig, _parse_request

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_solve_request_defaults():
    request = SolveRequest(formula=TRUE)
    assert request.sep_thold == DEFAULT_SEP_THOLD
    assert request.trans_budget == DEFAULT_TRANS_BUDGET


@pytest.mark.parametrize("argv", [["analyze", "f.suf"], ["compete", "d"]])
def test_cli_sep_thold_defaults(argv):
    assert build_parser().parse_args(argv).sep_thold == DEFAULT_SEP_THOLD


def test_compete_config_default():
    assert CompeteConfig(roots=["d"]).sep_thold == DEFAULT_SEP_THOLD


def test_serve_request_defaults():
    request, _members, _timeout = _parse_request(
        {"formula": "(= x x)"}, ServeConfig()
    )
    assert request.sep_thold == DEFAULT_SEP_THOLD
    assert request.trans_budget == DEFAULT_TRANS_BUDGET


def test_perfbench_measures_the_defaults():
    # Read with ast, not imported: perfbench keeps its own copies, and a
    # change of default must come with a matching benchmark change.
    with open(os.path.join(REPO, "perfbench", "workloads.py")) as fp:
        tree = ast.parse(fp.read())
    values = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("SEP_THOLD", "TRANS_BUDGET")
    }
    assert values == {
        "SEP_THOLD": DEFAULT_SEP_THOLD,
        "TRANS_BUDGET": DEFAULT_TRANS_BUDGET,
    }


def test_threshold_selection_selects_the_default():
    # The 11 fast sample formulas all have SepCnt <= 78, so whichever is
    # the boundary rounds up to the same multiple of 100; the budget
    # trips sit on the timeout sentinel.
    selection, _rows = run_threshold_selection()
    assert selection.threshold == DEFAULT_SEP_THOLD
