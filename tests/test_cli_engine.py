"""CLI tests for the engine-layer surface: portfolio, bench, --stats."""

import io
import sys

import pytest

from repro.cli import build_parser, main
from repro.engine import registry


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


VALID_F = "(=> (and (< x y) (< y z)) (< x z))"


class TestCheckViaRegistry:
    def test_method_choices_come_from_registry(self):
        parser = build_parser()
        args = parser.parse_args(["check", "f", "--method", "portfolio"])
        assert args.method == "portfolio"
        args = parser.parse_args(["check", "f", "--method", "brute"])
        assert args.method == "brute"

    def test_check_portfolio_reports_winner(self):
        code, out = run_cli(
            ["check", "-", "--method", "portfolio"], stdin_text=VALID_F
        )
        assert code == 0
        assert "VALID" in out
        assert "winner: " in out
        winner = [
            l for l in out.splitlines() if l.startswith("winner: ")
        ][0].split(": ")[1]
        assert winner in registry.list_engines()

    def test_check_brute_method(self):
        code, out = run_cli(
            ["check", "-", "--method", "brute"], stdin_text=VALID_F
        )
        assert code == 0
        assert "VALID" in out

    def test_stats_prints_stage_telemetry(self):
        code, out = run_cli(
            ["check", "-", "--stats"], stdin_text=VALID_F
        )
        assert code == 0
        assert "stages (hybrid):" in out
        assert "func-elim" in out
        # Preprocessing may close the instance outright, in which case
        # the sat stage never runs; one of the two must be reported.
        assert "preprocess" in out or "sat" in out

    def test_stats_without_preprocessing_reaches_sat(self):
        code, out = run_cli(
            ["check", "-", "--stats", "--no-preprocess"],
            stdin_text=VALID_F,
        )
        assert code == 0
        assert "sat" in out
        assert "preprocess" not in out

    def test_stats_with_portfolio(self):
        code, out = run_cli(
            ["check", "-", "--method", "portfolio", "--stats"],
            stdin_text=VALID_F,
        )
        assert code == 0
        assert "stages (" in out


class TestPortfolioCommand:
    def test_single_file(self, tmp_path):
        path = tmp_path / "f.suf"
        path.write_text(VALID_F)
        code, out = run_cli(["portfolio", str(path), "--sequential"])
        assert code == 0
        assert "VALID" in out
        assert "winner=" in out

    def test_multiple_files_batch(self, tmp_path):
        valid = tmp_path / "valid.suf"
        valid.write_text(VALID_F)
        invalid = tmp_path / "invalid.suf"
        invalid.write_text("(= x y)")
        code, out = run_cli(
            ["portfolio", str(valid), str(invalid), "--jobs", "2"]
        )
        assert code == 1  # one INVALID
        lines = [l for l in out.splitlines() if "winner=" in l]
        assert len(lines) == 2
        assert "VALID" in lines[0] and "INVALID" in lines[1]

    def test_engine_subset(self, tmp_path):
        path = tmp_path / "f.suf"
        path.write_text(VALID_F)
        code, out = run_cli(
            [
                "portfolio",
                str(path),
                "--engines",
                "eij,hybrid",
                "--sequential",
            ]
        )
        assert code == 0
        assert "winner=eij" in out

    def test_unknown_engine_rejected(self, tmp_path):
        path = tmp_path / "f.suf"
        path.write_text(VALID_F)
        code, _ = run_cli(
            ["portfolio", str(path), "--engines", "nope"]
        )
        assert code == 2


class TestBenchViaRegistry:
    @pytest.mark.parametrize("method", ["lazy", "svc", "portfolio"])
    def test_bench_new_methods(self, method):
        code, out = run_cli(
            ["bench", "pipeline_s2_r2_1", "--method", method]
        )
        assert code == 0
        assert "VALID" in out


class TestReportedTime:
    def test_portfolio_total_covers_the_race(self):
        code, out = run_cli(
            ["check", "-", "--method", "portfolio", "--stats"],
            stdin_text="(= x x)",
        )
        assert code == 0
        lines = out.splitlines()
        total = float(
            next(l for l in lines if l.startswith("time: ")).split()[1][:-1]
        )
        race = float(
            next(l for l in lines if l.split()[:1] == ["race"]).split()[1][:-1]
        )
        assert total >= race
