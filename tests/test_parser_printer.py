"""Parser/printer round-trip tests, including a hypothesis property."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic import builders as b
from repro.logic.parser import ParseError, parse_formula, parse_term
from repro.logic.printer import pretty, to_sexpr

from helpers import random_suf_formula


class TestParseBasics:
    def test_atoms(self):
        assert parse_formula("(= x y)") is b.eq(b.const("x"), b.const("y"))
        assert parse_formula("(< x y)") is b.lt(b.const("x"), b.const("y"))
        assert parse_formula("true") is b.true()
        assert parse_formula("false") is b.false()
        assert parse_formula("P") is b.bconst("P")

    def test_derived_comparisons(self):
        x, y = b.const("x"), b.const("y")
        assert parse_formula("(<= x y)") is b.le(x, y)
        assert parse_formula("(> x y)") is b.gt(x, y)
        assert parse_formula("(>= x y)") is b.ge(x, y)

    def test_terms(self):
        x = b.const("x")
        assert parse_term("(succ x)") is b.succ(x)
        assert parse_term("(pred x)") is b.pred(x)
        assert parse_term("(+ x 5)") is b.offset(x, 5)
        assert parse_term("(+ x -3)") is b.offset(x, -3)
        f = b.func("f")
        assert parse_term("(f x x)") is f(x, x)

    def test_ite(self):
        x, y = b.const("x"), b.const("y")
        parsed = parse_term("(ite (= x y) (succ x) y)")
        assert parsed is b.ite(b.eq(x, y), b.succ(x), y)

    def test_connectives(self):
        text = "(=> (and (= x y) (not P)) (or (< x y) (iff P Q)))"
        formula = parse_formula(text)
        x, y = b.const("x"), b.const("y")
        P, Q = b.bconst("P"), b.bconst("Q")
        expected = b.implies(
            b.band(b.eq(x, y), b.bnot(P)),
            b.bor(b.lt(x, y), b.iff(P, Q)),
        )
        assert formula is expected

    def test_comments_and_whitespace(self):
        text = """
        ; a comment
        (and (= x y)   ; inline comment
             (< x y))
        """
        assert parse_formula(text) is parse_formula("(and (= x y) (< x y))")

    def test_predicate_and_function_inference(self):
        formula = parse_formula("(p (f x) y)")
        from repro.logic.terms import FuncApp, PredApp

        assert isinstance(formula, PredApp)
        assert isinstance(formula.args[0], FuncApp)


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "(",
            ")",
            "(= x)",
            "(= x y z)",
            "(succ x y)",
            "(+ x y)",
            "(and (= x y)",
            "(= x y) extra",
            "(< true x)",
            "(not x-is-not-bool (= x y))",
            "(= and y)",
            "(ite (= x y) x)",
        ],
    )
    def test_malformed_inputs_raise(self, text):
        with pytest.raises(ParseError):
            parse_formula(text)

    def test_term_vs_formula_position(self):
        with pytest.raises(ParseError):
            parse_term("(and x y)")
        with pytest.raises(ParseError):
            parse_formula("(succ x)")


class TestRoundTrip:
    def test_simple_round_trip(self):
        x, y = b.const("x"), b.const("y")
        f = b.func("f")
        formula = b.implies(
            b.band(b.eq(f(x, y), b.offset(x, 4)), b.lt(x, b.pred(y))),
            b.bor(b.bconst("P"), b.bnot(b.eq(x, y))),
        )
        assert parse_formula(to_sexpr(formula)) is formula

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_round_trip(self, seed):
        formula = random_suf_formula(seed)
        assert parse_formula(to_sexpr(formula)) is formula

    def test_eq_prints_as_written(self):
        # The constant written second was interned first: printing still
        # keeps the equation's written order.
        b.const("print_order_x")
        formula = parse_formula("(= print_order_y print_order_x)")
        assert to_sexpr(formula) == "(= print_order_y print_order_x)"

    def test_pretty_parses_back(self):
        formula = random_suf_formula(7, depth=4)
        assert parse_formula(pretty(formula)) is formula

    def test_pretty_short_stays_one_line(self):
        formula = b.eq(b.const("x"), b.const("y"))
        assert "\n" not in pretty(formula)


class TestQuotedSymbols:
    """The |...| escaping rules shared with the SMT-LIB syntax
    (repro.logic.lexicon): awkward names survive the native round trip."""

    @pytest.mark.parametrize(
        "name", ["0", "-3", "two words", "ite", "succ", "iff", "true", "a;b"]
    )
    def test_awkward_name_round_trips(self, name):
        formula = b.band(
            b.eq(b.const(name), b.const("ok")),
            b.bor(
                b.bconst(name),
                b.lt(b.func(name)(b.const("ok")), b.const(name)),
            ),
        )
        assert parse_formula(to_sexpr(formula)) is formula
        assert parse_formula(pretty(formula)) is formula

    def test_quoted_reserved_head_is_a_symbol(self):
        assert parse_formula("(= |ite| y)") is b.eq(
            b.const("ite"), b.const("y")
        )
        assert parse_formula("|true|") is b.bconst("true")

    def test_quoted_numeral_is_a_symbol(self):
        assert parse_formula("(= |0| y)") is b.eq(b.const("0"), b.const("y"))

    def test_quoted_literal_position_rejected(self):
        with pytest.raises(ParseError):
            parse_formula("(= (+ x |1|) y)")

    def test_unterminated_quote_rejected(self):
        with pytest.raises(ParseError, match="unterminated"):
            parse_formula("(= |oops y)")

    def test_plain_names_stay_unquoted(self):
        formula = b.eq(b.const("x1"), b.func("f")(b.const("y")))
        assert "|" not in to_sexpr(formula)

    def test_printer_and_smtlib_share_lexicon(self):
        from repro.logic import lexicon
        from repro.logic.printer import SEXPR_RESERVED
        from repro.logic.smtlib import RESERVED_WORDS, needs_quoting

        # One rule engine, two reserved sets.
        for name in ("0", "two words", "-7"):
            assert lexicon.symbol_needs_quoting(name, SEXPR_RESERVED)
            assert needs_quoting(name)
        assert lexicon.symbol_needs_quoting("iff", SEXPR_RESERVED)
        assert "iff" not in RESERVED_WORDS
        assert needs_quoting("let")
        assert not lexicon.symbol_needs_quoting("let", SEXPR_RESERVED)
