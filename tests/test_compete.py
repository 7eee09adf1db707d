"""Tests for the ``repro compete`` evaluation runner."""

from __future__ import annotations

import json
import os

import pytest

from repro.benchgen.smtlib_corpus import default_corpus, emit_corpus
from repro.cli import main
from repro.engine.compete import (
    CompeteConfig,
    InstanceRun,
    _score,
    discover_instances,
    format_table,
    run_compete,
    write_report,
)
from repro.logic.smtlib import parse_smtlib

SAT_SCRIPT = """(set-logic QF_IDL)
(set-info :status sat)
(declare-const x Int)
(assert (< x 3))
(check-sat)
"""

UNSAT_SCRIPT = """(set-logic QF_IDL)
(set-info :status unsat)
(declare-const x Int)
(assert (< x x))
(check-sat)
"""

# :status deliberately wrong: the script is trivially sat.
MISMATCH_SCRIPT = """(set-logic QF_IDL)
(set-info :status unsat)
(declare-const x Int)
(assert (< x 3))
(check-sat)
"""

BROKEN_SCRIPT = "(set-logic QF_IDL)(assert (< x"

UNSUPPORTED_SCRIPT = """(set-logic QF_IDL)
(declare-const x Int)
(assert (= (* 2 x) 4))
(check-sat)
"""


def _write(root, name, text):
    path = os.path.join(root, name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fp:
        fp.write(text)
    return path


@pytest.fixture()
def corpus_dir(tmp_path):
    root = str(tmp_path / "bench")
    _write(root, "easy/sat_one.smt2", SAT_SCRIPT)
    _write(root, "easy/unsat_one.smt2", UNSAT_SCRIPT)
    _write(root, "hard/unsat_two.smt2", UNSAT_SCRIPT)
    return root


def test_discover_instances_labels_and_families(corpus_dir):
    found = discover_instances([corpus_dir])
    assert [label for label, _f, _p in found] == [
        os.path.join("easy", "sat_one.smt2"),
        os.path.join("easy", "unsat_one.smt2"),
        os.path.join("hard", "unsat_two.smt2"),
    ]
    assert [family for _l, family, _p in found] == ["easy", "easy", "hard"]


def test_discover_instances_multiple_roots_prefixed(tmp_path):
    root_a = str(tmp_path / "alpha")
    root_b = str(tmp_path / "beta")
    _write(root_a, "one.smt2", SAT_SCRIPT)
    _write(root_b, "one.smt2", SAT_SCRIPT)
    labels = [label for label, _f, _p in discover_instances([root_a, root_b])]
    assert len(set(labels)) == 2
    assert any(label.startswith("alpha") for label in labels)


def test_discover_instances_missing_root():
    with pytest.raises(FileNotFoundError):
        discover_instances(["/nonexistent/bench/dir"])


def test_run_compete_clean_sweep(corpus_dir, tmp_path):
    report = run_compete(
        CompeteConfig(roots=[corpus_dir], methods=["hybrid"], timeout=5.0)
    )
    score = report["methods"]["hybrid"]["score"]
    assert score["instances"] == 3
    assert score["solved"] == 3
    assert score["sat"] == 1
    assert score["unsat"] == 2
    assert score["mismatches"] == 0
    assert report["mismatches_total"] == 0
    assert report["ok"]
    families = report["methods"]["hybrid"]["families"]
    assert set(families) == {"easy", "hard"}
    assert families["easy"]["instances"] == 2
    # Round-trippable artifact.
    out = str(tmp_path / "report.json")
    write_report(report, out)
    with open(out) as fp:
        assert json.load(fp)["meta"]["scoring"] == "par2"
    # Human table mentions every method and family.
    table = format_table(report)
    assert "hybrid" in table and "easy" in table and "MISMATCH" not in table


def test_run_compete_flags_mismatches(tmp_path):
    root = str(tmp_path / "bench")
    _write(root, "bad.smt2", MISMATCH_SCRIPT)
    report = run_compete(CompeteConfig(roots=[root], methods=["hybrid"]))
    assert report["mismatches_total"] == 1
    assert not report["ok"]
    assert "MISMATCH" in format_table(report)


def test_run_compete_errors_gated_by_flag(tmp_path):
    root = str(tmp_path / "bench")
    _write(root, "broken.smt2", BROKEN_SCRIPT)
    _write(root, "unsupported.smt2", UNSUPPORTED_SCRIPT)
    _write(root, "fine.smt2", SAT_SCRIPT)
    report = run_compete(CompeteConfig(roots=[root], methods=["hybrid"]))
    score = report["methods"]["hybrid"]["score"]
    assert score["error"] == 2
    assert score["solved"] == 1
    assert report["ok"]  # errors tolerated by default
    strict = run_compete(
        CompeteConfig(roots=[root], methods=["hybrid"], fail_on_error=True)
    )
    assert not strict["ok"]
    rows = strict["methods"]["hybrid"]["instances"]
    assert "unsupported" in rows["unsupported.smt2"]["detail"]
    assert "parse error" in rows["broken.smt2"]["detail"]


def test_par2_math():
    timeout = 10.0
    rows = [
        InstanceRun("a", "f", "sat", "sat", 1.5),
        InstanceRun("b", "f", "unsat", "unsat", 2.5),
        InstanceRun("c", "f", "sat", "timeout", 10.0),
        InstanceRun("d", "f", None, "unknown", 0.5),
    ]
    score = _score(rows, timeout)
    assert score["solved"] == 2
    assert score["par2"] == pytest.approx(1.5 + 2.5 + 2 * timeout * 2)


def test_mismatch_requires_decided_both_sides():
    # unknown/timeout verdicts and unannotated instances never mismatch.
    assert InstanceRun("a", "f", "sat", "unsat", 0.1).mismatch
    assert not InstanceRun("a", "f", "sat", "unknown", 0.1).mismatch
    assert not InstanceRun("a", "f", None, "sat", 0.1).mismatch
    assert not InstanceRun("a", "f", "unknown", "sat", 0.1).mismatch


def test_cli_compete_exit_codes(corpus_dir, tmp_path, capsys):
    out = str(tmp_path / "report.json")
    rc = main(
        ["compete", corpus_dir, "--methods", "hybrid", "--out", out]
    )
    assert rc == 0
    assert os.path.exists(out)
    captured = capsys.readouterr()
    assert "solved" in captured.out

    bad_root = str(tmp_path / "badbench")
    _write(bad_root, "bad.smt2", MISMATCH_SCRIPT)
    assert main(["compete", bad_root, "--out", ""]) == 1

    assert main(["compete", "--out", ""]) == 2
    assert main(["compete", corpus_dir, "--methods", "nosuch"]) == 2


def test_cli_compete_writes_report_only_with_out(
    corpus_dir, tmp_path, monkeypatch
):
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    assert main(["compete", corpus_dir, "--methods", "hybrid"]) == 0
    assert os.listdir(workdir) == []


def test_cli_compete_fail_on_error(tmp_path):
    root = str(tmp_path / "bench")
    _write(root, "broken.smt2", BROKEN_SCRIPT)
    assert main(["compete", root, "--out", ""]) == 0
    assert main(["compete", root, "--out", "", "--fail-on-error"]) == 1


def test_benchgen_corpus_round_trips(tmp_path):
    out_dir = str(tmp_path / "gen")
    written = emit_corpus(out_dir, count=2)
    assert len(written) == 4  # two names, both polarities
    for path, status in written:
        script = parse_smtlib(open(path).read())
        assert script.expected_status == status
        assert script.check_sat_requested


def test_benchgen_corpus_statuses_verified():
    # The emitted :status annotations must agree with an actual solver
    # on at least one cheap pair (full sweep runs in compete-smoke).
    benches = default_corpus(count=1)
    assert {bench.expected_valid for bench in benches} == {True, False}


def test_compete_over_benchgen_emission(tmp_path):
    out_dir = str(tmp_path / "gen")
    emit_corpus(out_dir, count=1)
    report = run_compete(
        CompeteConfig(
            roots=[out_dir],
            methods=["hybrid"],
            timeout=30.0,
            fail_on_error=True,
        )
    )
    assert report["ok"]
    assert report["methods"]["hybrid"]["score"]["solved"] == 2
