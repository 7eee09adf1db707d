"""Serialization round-trip properties over fuzz-generated formulas.

Three serializers must be lossless:

* s-expression printer <-> parser (exact, by hash-consing identity);
* SMT-LIB script printer <-> :func:`repro.logic.smtlib.parse_smtlib`
  (exact up to the ``not`` the script wraps around the formula);
* Tseitin CNF <-> DIMACS text (structural, and verdict-preserving).

The sample source is the fuzz generator, so every profile's shape (ITEs,
offsets, applications, Boolean skeletons) flows through each printer.
"""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.fuzz import PROFILES, generate_formula
from repro.logic import builders as b
from repro.logic.parser import parse_formula
from repro.logic.printer import pretty, to_sexpr
from repro.logic.smtlib import parse_smtlib, to_smtlib, to_smtlib_script
from repro.logic.terms import Not
from repro.sat.dimacs import dumps, loads
from repro.sat.solver import solve_cnf
from repro.sat.tseitin import to_cnf

SAMPLES = [
    (profile, seed)
    for profile, seed in itertools.product(sorted(PROFILES), range(12))
]


def _ids(sample):
    return "%s-%d" % sample


@pytest.mark.parametrize("sample", SAMPLES, ids=_ids)
class TestEveryProfileEverySerializer:
    def test_sexpr_round_trip_is_identity(self, sample):
        profile, seed = sample
        formula = generate_formula(seed, profile)
        assert parse_formula(to_sexpr(formula)) is formula

    def test_pretty_round_trip_is_identity(self, sample):
        profile, seed = sample
        formula = generate_formula(seed, profile)
        assert parse_formula(pretty(formula)) is formula

    def test_smtlib_script_round_trip_is_identity(self, sample):
        profile, seed = sample
        formula = generate_formula(seed, profile)
        script = parse_smtlib(to_smtlib_script(formula))
        # The script asserts (not F); un-negating must give F back
        # exactly (Not(Not(F)) folds to F under hash consing).
        assert Not(script.conjunction()) is formula

    def test_dimacs_round_trip_preserves_cnf(self, sample):
        from repro.encodings.hybrid import encode_hybrid
        from repro.transform.func_elim import eliminate_applications

        profile, seed = sample
        formula = generate_formula(seed, profile)
        # Tseitin expects the propositional check formula, i.e. the
        # output of the encoding pipeline, not the raw SUF formula.
        f_sep, _ = eliminate_applications(formula)
        cnf = to_cnf(encode_hybrid(f_sep).check_formula)
        back = loads(dumps(cnf, comment="round-trip"))
        assert back.num_vars == cnf.num_vars
        assert [sorted(c) for c in back.clauses] == [
            sorted(c) for c in cnf.clauses
        ]
        assert solve_cnf(back).is_sat == solve_cnf(cnf).is_sat


class TestSmtlibPrinterDetails:
    def test_unnegated_script(self):
        x, y = b.const("x"), b.const("y")
        formula = b.lt(x, y)
        script = parse_smtlib(to_smtlib_script(formula, negate=False))
        assert script.conjunction() is formula

    def test_logic_auto_selection(self):
        x, y = b.const("x"), b.const("y")
        f = b.func("f")
        assert "QF_IDL" in to_smtlib_script(b.lt(b.succ(x), y))
        assert "QF_UF" in to_smtlib_script(b.eq(f(x), x))
        assert "QF_UFIDL" in to_smtlib_script(
            b.band(b.eq(f(x), x), b.lt(b.succ(x), y))
        )

    def test_quoted_symbols_round_trip(self):
        ugly = b.const("two words")
        formula = b.eq(ugly, b.const("x"))
        assert "|two words|" in to_smtlib(formula)
        script = parse_smtlib(to_smtlib_script(formula))
        assert Not(script.conjunction()) is formula

    @given(
        name=st.text(
            alphabet=st.characters(
                whitelist_categories=("Ll", "Lu", "Nd"),
                whitelist_characters=" .-",
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    # Names the SMT-LIB reader lexes as decimals must print quoted.
    @example(name=".0")
    @example(name="-1.5")
    @example(name="+.5")
    def test_symbol_quoting_property(self, name):
        if name.strip() != name or "|" in name or "\\" in name:
            return  # outside the printable-symbol contract
        formula = b.eq(b.const(name), b.const("rt"))
        if formula is b.true():
            return  # name == "rt" folds the atom away
        script = parse_smtlib(to_smtlib_script(formula))
        assert Not(script.conjunction()) is formula


class TestVerdictSurvivesSmtlibRoundTrip:
    """``check-sat`` on the emitted script must answer ``unsat`` exactly
    for valid formulas (SMT-LIB semantics of asserting the negation)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_verdicts_agree(self, seed):
        from repro.core.decision import check_validity
        from repro.logic.smtlib import check_sat_smtlib

        formula = generate_formula(seed, "mixed")
        direct = check_validity(formula, want_countermodel=False)
        answer = check_sat_smtlib(to_smtlib_script(formula))
        assert (answer == "unsat") == (direct.valid is True)
