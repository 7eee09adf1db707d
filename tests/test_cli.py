"""Tests for the command-line interface."""

import io
import os
import subprocess
import sys

import pytest

from repro import experiments
from repro.benchgen.suite import benchmark_by_name
from repro.cli import build_parser, main
from repro.encodings.hybrid import DEFAULT_SEP_THOLD, DEFAULT_TRANS_BUDGET
from repro.experiments import fig5
from repro.experiments.report import Claim, with_claims
from repro.experiments.runner import RunRow
from repro.logic.printer import to_sexpr


def run_cli(argv, stdin_text=None):
    """Run the CLI capturing stdout; returns (exit_code, output)."""
    old_stdout, old_stdin = sys.stdout, sys.stdin
    sys.stdout = io.StringIO()
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        code = main(argv)
        return code, sys.stdout.getvalue()
    finally:
        sys.stdout = old_stdout
        sys.stdin = old_stdin


def run_cli_on_suite_query(tmp_path, name, *argv):
    """Run ``repro ARGV[0] FILE ARGV[1:]`` in a fresh interpreter on the
    suite query ``name``; a hang fails the test after 30 s."""
    path = tmp_path / (name + ".suf")
    path.write_text(to_sexpr(benchmark_by_name(name).formula))
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    command, *flags = argv
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", command, str(path), *flags],
        capture_output=True,
        text=True,
        env=env,
        timeout=30,
    ).stdout


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_check_defaults(self):
        args = build_parser().parse_args(["check", "file.suf"])
        assert args.method == "hybrid"
        assert args.sep_thold == DEFAULT_SEP_THOLD


class TestCheckCommand:
    def test_valid_formula_from_stdin(self):
        code, out = run_cli(
            ["check", "-"], stdin_text="(=> (< x y) (<= x y))"
        )
        assert code == 0
        assert "VALID" in out

    def test_invalid_formula_exit_code(self):
        code, out = run_cli(["check", "-"], stdin_text="(= x y)")
        assert code == 1
        assert "INVALID" in out

    def test_countermodel_printed(self):
        code, out = run_cli(
            ["check", "-", "--countermodel"], stdin_text="(< x y)"
        )
        assert code == 1
        assert "countermodel:" in out
        assert "x =" in out

    @pytest.mark.parametrize(
        "method", ["sd", "eij", "static", "lazy", "svc"]
    )
    def test_all_methods(self, method):
        code, out = run_cli(
            ["check", "-", "--method", method],
            stdin_text="(=> (and (< x y) (< y z)) (< x z))",
        )
        assert code == 0
        assert "VALID" in out

    def test_file_input(self, tmp_path):
        path = tmp_path / "formula.suf"
        path.write_text("(=> (= a b) (= (f a) (f b)))")
        code, out = run_cli(["check", str(path)])
        assert code == 0

    @pytest.mark.parametrize(
        "name,status",
        [
            ("ooo_t16_7", "VALID"),
            ("driver_s12_5", "VALID"),
            ("invariant_n12_3", "TRANSLATION_LIMIT"),
        ],
    )
    def test_no_flags_never_hang(self, tmp_path, name, status):
        out = run_cli_on_suite_query(tmp_path, name, "check")
        assert "status: %s\n" % status in out
        if status == "TRANSLATION_LIMIT":
            # The default clause budget stopped transitivity generation,
            # and the output says so.
            assert "budget %d" % DEFAULT_TRANS_BUDGET in out
            assert "\ndetail: " in out

    def test_timeout_stops_transitivity_generation(self, tmp_path):
        # The clause budget trips about 0.07 s into invariant_n12_3, so
        # the time limit must be shorter still to be what stops it: the
        # generators read the clock every 1 024 clauses, and a budget
        # trip would report budget + 1.
        out = run_cli_on_suite_query(
            tmp_path, "invariant_n12_3", "check", "--timeout", "0.001",
            "--stats",
        )
        assert "status: TRANSLATION_LIMIT" in out
        assert "exceeded the time limit" in out
        encode = next(
            line.split() for line in out.splitlines()
            if line.split()[:1] == ["encode"]
        )
        assert "trans_clauses=1024" in encode


class TestBenchCommand:
    def test_known_benchmark(self):
        code, out = run_cli(["bench", "pipeline_s2_r2_1"])
        assert code == 0
        assert "VALID" in out

    def test_unknown_benchmark(self):
        code, out = run_cli(["bench", "no_such_bench"])
        assert code == 2

    def test_print_formula(self):
        code, out = run_cli(
            ["bench", "pipeline_s2_r2_1", "--print-formula"]
        )
        assert code == 0
        assert "(=" in out or "(ite" in out


class TestSuiteCommand:
    def test_lists_49(self):
        code, out = run_cli(["suite"])
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 49
        assert any("invariant" in line for line in lines)


class TestAnalyzeCommand:
    def test_analysis_output(self):
        code, out = run_cli(
            ["analyze", "-"],
            stdin_text="(not (and (< x y) (= (+ x 2) y) (= u v)))",
        )
        assert code == 0
        assert "classes: 2" in out  # {x, y} and {u, v}
        assert "V_p: 0" in out
        assert "inequalities+offsets" in out
        assert "equalities only" in out

    def test_equality_only_class(self):
        code, out = run_cli(
            ["analyze", "-"], stdin_text="(not (= x y))"
        )
        assert code == 0
        assert "equalities only" in out

    @pytest.mark.parametrize(
        "name,class0",
        [
            ("invariant_n12_3", ("SepCnt=67,", "-> EIJ")),
            ("ooo_t16_7", ("SepCnt=135,", "-> SD")),
            (
                "transval_s3_i4_3",
                ("SepCnt=171,", "-> EIJ (transitivity <= 2907 clauses)"),
            ),
        ],
    )
    def test_method_choice_without_encoding(self, tmp_path, name, class0):
        # The per-class choice is the one `repro check` makes, read from
        # SepCnt and, for an equality-only class, the size of its
        # transitivity bound: no transitivity generation, so no query
        # hangs.
        out = run_cli_on_suite_query(tmp_path, name, "analyze")
        line = next(l for l in out.splitlines() if "class 0:" in l)
        for part in class0:
            assert part in line


class TestSatCommand:
    def test_sat_instance(self):
        code, out = run_cli(
            ["sat", "-", "--model"],
            stdin_text="p cnf 2 2\n1 2 0\n-1 0\n",
        )
        assert code == 10
        assert "s SATISFIABLE" in out
        assert "v -1 2 0" in out

    def test_unsat_instance(self):
        code, out = run_cli(
            ["sat", "-"], stdin_text="p cnf 1 2\n1 0\n-1 0\n"
        )
        assert code == 20
        assert "s UNSATISFIABLE" in out


class TestSmtLibInput:
    def test_auto_detected_unsat(self):
        script = (
            "(set-logic QF_IDL)(declare-const a Int)(declare-const b Int)"
            "(assert (< a b))(assert (< b a))(check-sat)"
        )
        code, out = run_cli(["check", "-"], stdin_text=script)
        assert "unsat" in out
        assert code == 0  # negation VALID

    def test_auto_detected_sat(self):
        script = (
            "(declare-const a Int)(declare-const b Int)"
            "(assert (< a b))(check-sat)"
        )
        code, out = run_cli(["check", "-"], stdin_text=script)
        assert out.splitlines()[0] == "sat"
        assert code == 1

    def test_explicit_format_flag(self):
        code, out = run_cli(
            ["check", "-", "--format", "sexpr"],
            stdin_text="(= x x)",
        )
        assert code == 0


class TestCheckParseErrors:
    """Malformed input is a clean exit-2 diagnostic, not a traceback."""

    def test_out_of_fragment_smtlib(self, capsys):
        script = (
            "(set-logic QF_IDL)(declare-const a Int)"
            "(assert (= (* a 2) a))(check-sat)"
        )
        code, _out = run_cli(["check", "-"], stdin_text=script)
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "outside the SUF fragment" in err

    def test_malformed_smtlib_reports_position(self, capsys):
        code, _out = run_cli(
            ["check", "-"], stdin_text="(set-logic QF_IDL)(assert"
        )
        assert code == 2
        assert "line" in capsys.readouterr().err

    def test_malformed_sexpr(self, capsys):
        code, _out = run_cli(["check", "-"], stdin_text="(=> (and")
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,stdin_text",
        [
            (["check", "/no/such/file"], None),
            (["analyze", "/no/such/file"], None),
            (["analyze", "-"], "(=> (and"),
            (["portfolio", "/no/such/file"], None),
            (["portfolio", "-"], "(=> (and"),
            (["sat", "/no/such/file"], None),
            (["sat", "-"], "p cnf 1 1\n1 x 0\n"),
            (["sat", "-"], "p cnf 1\n1 0\n"),
        ],
        ids=[
            "check-missing-file",
            "analyze-missing-file",
            "analyze-malformed-sexpr",
            "portfolio-missing-file",
            "portfolio-malformed-sexpr",
            "sat-missing-file",
            "sat-malformed-literal",
            "sat-malformed-header",
        ],
    )
    def test_unreadable_input(self, capsys, argv, stdin_text):
        code, _out = run_cli(argv, stdin_text=stdin_text)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestNoPreprocessFlag:
    def test_flag_parsed(self):
        args = build_parser().parse_args(["check", "-", "--no-preprocess"])
        assert args.no_preprocess is True

    def test_verdict_unchanged_without_preprocessing(self):
        formula = "(=> (and (= x y) (= y z)) (= x z))"
        code_on, out_on = run_cli(["check", "-"], stdin_text=formula)
        code_off, out_off = run_cli(
            ["check", "-", "--no-preprocess"], stdin_text=formula
        )
        assert code_on == code_off == 0
        assert "VALID" in out_on and "VALID" in out_off

    def test_countermodel_survives_reconstruction(self):
        # INVALID + --countermodel exercises the decode path through the
        # preprocessor's model-reconstruction stack.
        code, out = run_cli(
            ["check", "-", "--countermodel"], stdin_text="(= x y)"
        )
        assert code == 1
        assert "countermodel:" in out


def invariant_rows(eij_status):
    """One synthetic Fig. 5 row: SD decides, default HYBRID fails, and
    EIJ ends with ``eij_status``."""

    def run(procedure, status):
        return RunRow(
            benchmark="invariant_n10_1",
            domain="invariant",
            procedure=procedure,
            status=status,
            total_seconds=1.0,
        )

    return [
        fig5.Fig5Row(
            benchmark="invariant_n10_1",
            hybrid=run("HYBRID", "VALID"),
            hybrid_default=run("HYBRID", "TRANSLATION_LIMIT"),
            sd=run("SD", "VALID"),
            eij=run("EIJ", eij_status),
        )
    ]


class TestExperimentCommand:
    @pytest.mark.parametrize(
        "eij_status, code, line",
        [
            ("TRANSLATION_LIMIT", 0, "1/1 (bound >= 1) holds"),
            ("VALID", 1, "0/1 (bound >= 1) FAILS"),
        ],
    )
    def test_exit_status_follows_the_claims(
        self, monkeypatch, tmp_path, eij_status, code, line
    ):
        monkeypatch.setattr(
            fig5, "run_fig5", lambda timeout: invariant_rows(eij_status)
        )
        saved = tmp_path / "fig5.txt"
        result, out = run_cli(["experiment", "fig5", "--save", str(saved)])
        assert result == code
        claim = "FIG5 claim: EIJ fails on every invariant formula: " + line
        assert claim in out.splitlines()
        assert saved.read_text() == out

    def test_all_runs_every_experiment_before_failing(self, monkeypatch):
        ran = []

        def driver(name):
            def run(timeout):
                ran.append(name)
                claim = Claim(name, "synthetic", "1/1", ">= 1", name != "fig3")
                return with_claims(name, [claim]), [claim]

            return run

        for name in experiments.EXPERIMENTS:
            monkeypatch.setitem(experiments.EXPERIMENTS, name, driver(name))
        code, out = run_cli(["experiment", "all"])
        assert code == 1
        assert ran == list(experiments.EXPERIMENTS)
        assert out.count(" holds\n") == 6
        assert "fig3 claim: synthetic: 1/1 (bound >= 1) FAILS" in out
