"""Tests for the command-line interface."""

import io
import os
import subprocess
import sys

import pytest

from repro.benchgen.suite import benchmark_by_name
from repro.cli import build_parser, main
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


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_check_defaults(self):
        args = build_parser().parse_args(["check", "file.suf"])
        assert args.method == "hybrid"
        assert args.sep_thold == 700


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

    def test_timeout_stops_transitivity_generation(self, tmp_path):
        # No clause budget is set, so only --timeout can end EIJ's
        # transitivity blow-up on the invariant family.
        path = tmp_path / "invariant.suf"
        path.write_text(
            to_sexpr(benchmark_by_name("invariant_n12_3").formula)
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "check", str(path),
                "--timeout", "2",
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=30,
        )
        assert "status: TRANSLATION_LIMIT" in out.stdout


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
