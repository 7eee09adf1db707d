"""Tests for the differential/metamorphic fuzzing subsystem itself.

The smoke campaign here (fixed seed, 200 iterations) is the pytest entry
point the CI target runs; the self-check proves the harness can actually
catch and shrink an injected encoder bug.
"""

import os
import random

import pytest

from helpers import random_suf_formula
from repro.cli import main as cli_main
from repro.fuzz import (
    PROFILES,
    FuzzConfig,
    TRANSFORMS,
    apply_transform,
    default_methods,
    differential_check,
    generate_formula,
    inject_strictness_bug,
    run_campaign,
    shrink,
)
from repro.fuzz.oracle import consensus_verdict
from repro.logic.parser import parse_formula
from repro.logic.printer import to_sexpr
from repro.logic.smtlib import parse_smtlib
from repro.logic.terms import And, Lt, Not
from repro.logic.traversal import collect_atoms, dag_size, iter_dag
from repro.solvers.brute import brute_force_valid


class TestGenerator:
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_deterministic(self, profile):
        for seed in range(10):
            a = generate_formula(seed, profile)
            c = generate_formula(seed, profile)
            assert a is c  # hash consing makes determinism exact

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_seeds_vary(self, profile):
        formulas = {generate_formula(seed, profile) for seed in range(20)}
        assert len(formulas) > 10

    def test_profiles_shape_output(self):
        def kinds(profile):
            has_lt = has_app = False
            for seed in range(30):
                for node in iter_dag(generate_formula(seed, profile)):
                    has_lt = has_lt or isinstance(node, Lt)
                    has_app = has_app or type(node).__name__ in (
                        "FuncApp",
                        "PredApp",
                    )
            return has_lt, has_app

        eq_lt, eq_app = kinds("equality")
        assert not eq_lt and not eq_app
        uf_lt, uf_app = kinds("uf")
        assert uf_app
        off_lt, _ = kinds("offset")
        assert off_lt

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown profile"):
            generate_formula(0, "bogus")


class TestTransforms:
    @pytest.mark.parametrize("name", [name for name, _ in TRANSFORMS])
    @pytest.mark.parametrize("profile", ["equality", "mixed"])
    def test_verdict_preserved(self, name, profile):
        methods = default_methods(names=["brute", "hybrid"])
        checked = 0
        for seed in range(12):
            formula = generate_formula(seed, profile)
            variant = apply_transform(name, formula, random.Random(seed))
            if variant is None:
                continue
            base = consensus_verdict(formula, methods)
            after = consensus_verdict(variant, methods)
            if base is None or after is None:
                continue
            assert after == base, "%s flipped seed %d" % (name, seed)
            checked += 1
        assert checked >= 4  # the transform actually applied

    def test_inapplicable_returns_none(self):
        from repro.logic import builders as b

        pure_bool = b.bconst("P")
        assert apply_transform("rename_vars", pure_bool, random.Random(0))
        assert (
            apply_transform("translate_offsets", pure_bool, random.Random(0))
            is None
        )
        assert (
            apply_transform("introduce_ite", pure_bool, random.Random(0))
            is None
        )


class TestShrinker:
    def test_shrinks_to_single_atom(self):
        from repro.logic import builders as b

        x, y, z = b.const("x"), b.const("y"), b.const("z")
        big = b.band(
            b.implies(b.eq(x, y), b.lt(y, z)),
            b.bor(b.lt(x, z), b.eq(y, z)),
            b.lt(b.succ(x), y),
        )

        def has_lt(candidate):
            return any(isinstance(n, Lt) for n in iter_dag(candidate))

        small = shrink(big, has_lt)
        assert has_lt(small)
        assert dag_size(small) < dag_size(big)
        assert dag_size(small) <= 4  # one < atom over two constants

    def test_respects_check_budget(self):
        from repro.fuzz.shrink import shrink_report

        formula = generate_formula(3, "mixed")
        result = shrink_report(formula, lambda f: True, max_checks=7)
        assert result.checks <= 7


class TestOracle:
    def test_clean_sample_has_no_discrepancy(self):
        methods = default_methods()
        formula = generate_formula(0, "mixed")
        assert differential_check(formula, methods) is None

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            default_methods(names=["hybrid", "zchaff"])

    def test_injected_bug_is_visible(self):
        # x < y is falsifiable but its weakened form x <= y changes the
        # set of countermodels; across samples the oracle must notice.
        methods = inject_strictness_bug(default_methods(), victim="hybrid")
        found = None
        for seed in range(40):
            formula = generate_formula(seed, "offset")
            found = differential_check(formula, methods)
            if found is not None:
                break
        assert found is not None


class TestCampaign:
    def test_smoke_200_iterations_clean(self):
        report = run_campaign(
            FuzzConfig(iterations=200, seed=0, out_dir=None)
        )
        assert report.ok, "\n".join(report.summary_lines())
        assert report.iterations_run == 200
        assert report.decided >= 190  # almost every sample fully decided
        assert report.metamorphic_checks > 100
        assert "seed=0" in report.summary_lines()[0]

    def test_injected_bug_caught_and_shrunk(self, tmp_path):
        methods = inject_strictness_bug(default_methods(), victim="hybrid")
        report = run_campaign(
            FuzzConfig(
                iterations=120,
                seed=0,
                methods=methods,
                out_dir=str(tmp_path),
                max_failures=1,
            )
        )
        assert not report.ok
        failure = report.failures[0]
        assert len(collect_atoms(failure.shrunk)) <= 10
        assert dag_size(failure.shrunk) <= dag_size(failure.original)
        # Both reproducer formats parse back.
        sexpr_files = list(tmp_path.glob("*.sexpr"))
        smt_files = list(tmp_path.glob("*.smt2"))
        assert sexpr_files and smt_files
        text = sexpr_files[0].read_text()
        assert parse_formula(text) is failure.shrunk
        script = parse_smtlib(smt_files[0].read_text())
        assert script.check_sat_requested

    def test_campaign_deterministic(self):
        config = FuzzConfig(iterations=60, seed=7, out_dir=None)
        first = run_campaign(config)
        second = run_campaign(config)
        assert first.ok and second.ok
        assert (first.decided, first.valid_count, first.invalid_count) == (
            second.decided,
            second.valid_count,
            second.invalid_count,
        )


class TestCli:
    def test_clean_run_exits_zero(self, capsys):
        code = cli_main(
            ["fuzz", "--iterations", "30", "--seed", "3", "--out", ""]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "seed=3" in out
        assert "no discrepancies" in out

    def test_bad_profile_is_usage_error(self, capsys):
        code = cli_main(["fuzz", "--iterations", "1", "--profile", "nope"])
        assert code == 2
        assert "unknown profile" in capsys.readouterr().err

    def test_bad_method_is_usage_error(self, capsys):
        code = cli_main(["fuzz", "--iterations", "1", "--methods", "z3"])
        assert code == 2

    def test_self_check_catches_injected_bug(self, capsys):
        code = cli_main(
            [
                "fuzz",
                "--iterations",
                "120",
                "--seed",
                "0",
                "--self-check",
                "--no-shrink",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0  # self-check: catching the bug is success
        assert "self-check passed" in out

    def test_discrepancy_exits_one(self, monkeypatch, capsys):
        import repro.fuzz
        from repro.fuzz.harness import FuzzFailure, FuzzReport
        from repro.fuzz.oracle import Discrepancy

        def fake_campaign(config, log=None):
            report = FuzzReport(config=config, iterations_run=1)
            formula = generate_formula(0, "mixed")
            report.failures.append(
                FuzzFailure(
                    iteration=0,
                    profile="mixed",
                    discrepancy=Discrepancy(
                        kind="verdict",
                        formula=formula,
                        detail="decided verdicts disagree",
                    ),
                    original=formula,
                    shrunk=formula,
                )
            )
            return report

        monkeypatch.setattr(repro.fuzz, "run_campaign", fake_campaign)
        code = cli_main(["fuzz", "--iterations", "1", "--out", ""])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_method_subset_runs(self, capsys):
        code = cli_main(
            [
                "fuzz",
                "--iterations",
                "10",
                "--methods",
                "brute,hybrid",
                "--out",
                "",
            ]
        )
        assert code == 0


class TestMethodsHelp:
    def test_help_lists_every_arm(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["fuzz", "--help"])
        # argparse wraps the list anywhere; whitespace is not part of it.
        text = "".join(capsys.readouterr().out.split())
        listed = text.split("subsetof", 1)[1].split("--corpus", 1)[0]
        assert listed.split(",") == list(default_methods())


class TestCachedArm:
    def test_default_methods_include_cached(self):
        assert "cached" in default_methods()

    def test_cached_arm_agrees_and_hits(self):
        from repro.fuzz.oracle import _cached_method

        run = _cached_method()
        for seed in range(20):
            formula = generate_formula(seed, "mixed")
            outcome = run(formula)
            # A decided cold solve must be re-served from the cache and
            # shared with its alpha-renamed variant; _cached_method turns
            # any violation into an error.
            assert outcome.error is None, (seed, outcome.error)
            assert outcome.countermodel_ok in (None, True)

    def test_cached_arm_cold_per_registry(self):
        from repro.fuzz.oracle import _cached_method

        formula = generate_formula(1, "equality")
        first = _cached_method()
        first(formula)
        # A fresh arm has a fresh (cold) cache: the first solve of the
        # same formula is a miss again, caught via the hit-requirement
        # erroring if we pre-warm with a different closure.
        second = _cached_method()
        outcome = second(formula)
        assert outcome.error is None

    def test_cached_arm_in_campaign(self):
        report = run_campaign(
            FuzzConfig(
                iterations=40,
                seed=11,
                methods=default_methods(
                    names=["brute", "hybrid", "cached"]
                ),
                out_dir=None,
            )
        )
        assert report.ok, "\n".join(report.summary_lines())

    def test_oracle_catches_poisoned_cache(self):
        # Flip the stored verdict behind the arm's back: the poisoned
        # INVALID must surface as a countermodel/verdict discrepancy
        # against the honest engines instead of being trusted.
        from repro.engine.contract import SolveRequest
        from repro.fuzz.oracle import _cached_method, check_outcomes
        from repro.logic.canonical import canonicalize
        from repro.service import cache as cache_mod

        formula = parse_formula("(=> (= x y) (= (f x) (f y)))")
        run = _cached_method()
        engine = next(
            cell.cell_contents
            for cell in run.__closure__
            if isinstance(cell.cell_contents, cache_mod.CachedEngine)
        )
        assert run(formula).error is None
        form = canonicalize(formula)
        fingerprint = cache_mod.config_fingerprint(
            "hybrid", SolveRequest(formula=form.formula)
        )
        poisoned = cache_mod.CacheEntry(
            status="INVALID",
            countermodel=cache_mod.interp_from_jsonable(
                {"vars": {"v0": 0, "v1": 0}}
            ),
            engine="hybrid",
        )
        with engine._cache._lock:
            assert (form.key, fingerprint) in engine._cache._memory
            engine._cache._memory[(form.key, fingerprint)] = poisoned
        outcome = run(formula)
        outcome.name = "cached"
        assert outcome.valid is False  # the cache served the lie...
        assert outcome.countermodel_ok is False  # ...and replay caught it
        honest = default_methods(names=["hybrid"])["hybrid"](formula)
        discrepancy = check_outcomes(formula, [honest, outcome])
        assert discrepancy is not None
        assert discrepancy.kind in ("countermodel", "verdict")


class TestIncrementalArm:
    def test_default_methods_include_incremental(self):
        assert "incremental" in default_methods()

    def test_incremental_arm_agrees_with_scratch(self):
        from repro.fuzz.oracle import _incremental_method

        run = _incremental_method()
        decided = 0
        for seed in range(40):
            formula = generate_formula(seed, "mixed")
            outcome = run(formula)
            # _incremental_method turns any incremental-vs-scratch
            # mismatch, bad model, or failed core re-solve into an error.
            assert outcome.error is None, (seed, outcome.error)
            assert outcome.countermodel_ok in (None, True)
            decided += outcome.valid is not None
        assert decided >= 30

    def test_incremental_arm_reuses_one_session(self):
        from repro.engine.session import Session
        from repro.fuzz.oracle import _incremental_method

        run = _incremental_method()
        session = next(
            cell.cell_contents
            for cell in run.__closure__
            if isinstance(cell.cell_contents, Session)
        )
        for seed in range(10):
            run(generate_formula(seed, "offset"))
        # Frames are unwound after every sample, but the one persistent
        # session (and its solver state) served all of them.
        assert session.depth == 0
        assert session.assertions() == []
        assert session.stats.checks >= 10

    def test_incremental_arm_in_campaign(self):
        report = run_campaign(
            FuzzConfig(
                iterations=40,
                seed=13,
                methods=default_methods(
                    names=["brute", "hybrid", "incremental"]
                ),
                out_dir=None,
            )
        )
        assert report.ok, "\n".join(report.summary_lines())


class TestPreprocessConfigs:
    def test_default_methods_include_preprocess_arms(self):
        methods = default_methods()
        assert "sd+preprocess" in methods
        assert "hybrid+preprocess" in methods

    def test_preprocess_arm_agrees_with_bare_method(self):
        from repro.fuzz.generator import generate_formula

        methods = default_methods(names=["hybrid"])
        methods.update(
            {
                k: v
                for k, v in default_methods().items()
                if k == "hybrid+preprocess"
            }
        )
        for seed in range(25):
            formula = generate_formula(seed, profile="mixed")
            outcomes = {
                name: fn(formula) for name, fn in methods.items()
            }
            verdicts = {n: o.valid for n, o in outcomes.items()}
            assert len(set(verdicts.values())) == 1, (seed, verdicts)
            for outcome in outcomes.values():
                # Any countermodel (including reconstructed ones) must
                # have re-validated against the input formula.
                assert outcome.countermodel_ok in (None, True)
                assert outcome.error is None


class TestPortfolioArm:
    def test_default_methods_include_portfolio(self):
        assert "portfolio" in default_methods()


class TestSmtlibRoundtripArm:
    def test_default_methods_include_smtlib_roundtrip(self):
        assert "smtlib-roundtrip" in default_methods()

    def test_roundtrip_arm_agrees_with_brute(self):
        methods = default_methods(names=["brute", "smtlib-roundtrip"])
        for seed in range(25):
            formula = random_suf_formula(seed)
            arm = methods["smtlib-roundtrip"](formula)
            ref = methods["brute"](formula)
            assert arm.error is None, (seed, arm.error)
            if None not in (arm.valid, ref.valid):
                assert arm.valid == ref.valid, seed
            assert arm.countermodel_ok in (None, True)

    def test_roundtrip_arm_reports_key_drift_as_error(self):
        # A printer that mangles the formula must be caught by the key
        # check, not silently solved.
        from unittest import mock

        from repro.logic import builders as b
        from repro.logic.smtlib import to_smtlib_script as real_printer

        formula = random_suf_formula(3)

        def mangling_printer(f, **kwargs):
            return real_printer(
                b.band(f, b.lt(b.const("vx"), b.const("vy"))), **kwargs
            )

        with mock.patch(
            "repro.logic.smtlib.to_smtlib_script", mangling_printer
        ):
            outcome = default_methods(names=["smtlib-roundtrip"])[
                "smtlib-roundtrip"
            ](formula)
        assert outcome.error is not None
        assert "canonical key" in outcome.error


class TestCorpusMode:
    CORPUS = os.path.join(
        os.path.dirname(__file__), "fixtures", "smtlib", "corpus"
    )

    def test_campaign_over_fixture_corpus(self):
        config = FuzzConfig(
            iterations=8,
            seed=7,
            metamorphic=True,
            shrink=False,
            out_dir=None,
            methods=default_methods(names=["brute", "hybrid"]),
            corpus_dir=self.CORPUS,
        )
        report = run_campaign(config)
        assert report.ok, [f.discrepancy.describe() for f in report.failures]
        assert report.iterations_run == 8
        assert report.decided == 8

    def test_corpus_mutation_is_deterministic(self):
        from repro.fuzz.harness import _load_corpus, _mutate_sample
        from repro.logic.printer import to_sexpr

        samples = _load_corpus(self.CORPUS)
        assert len(samples) >= 20
        base = samples[0][1]
        one = _mutate_sample(base, random.Random("corpus:0:5"))
        two = _mutate_sample(base, random.Random("corpus:0:5"))
        assert to_sexpr(one) == to_sexpr(two)

    def test_empty_corpus_rejected(self, tmp_path):
        from repro.fuzz.harness import _load_corpus

        with pytest.raises(ValueError, match="no parseable"):
            _load_corpus(str(tmp_path))

    def test_cli_corpus_flag(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "fuzz",
                "--iterations",
                "4",
                "--seed",
                "2",
                "--methods",
                "brute,hybrid",
                "--corpus",
                self.CORPUS,
                "--no-shrink",
                "--out",
                "",
            ]
        )
        assert rc == 0
        assert "no discrepancies" in capsys.readouterr().out

    def test_cli_missing_corpus_dir(self, capsys):
        from repro.cli import main

        rc = main(["fuzz", "--corpus", "/nonexistent/corpus/dir"])
        assert rc == 2
