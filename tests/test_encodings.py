"""Unit tests for the SD / EIJ / HYBRID / STATIC encoders."""

import pytest

from repro.encodings.hybrid import (
    Encoding,
    encode_eij,
    encode_hybrid,
    encode_sd,
    encode_static_hybrid,
)
from repro.logic import builders as b
from repro.sat.solver import solve_cnf
from repro.sat.tseitin import to_cnf
from repro.separation.analysis import analyze_separation
from repro.transform.func_elim import eliminate_applications


def is_valid(encoding: Encoding) -> bool:
    return solve_cnf(to_cnf(encoding.check_formula)).is_unsat


def sep(formula):
    f_sep, _ = eliminate_applications(formula)
    return f_sep


class TestMethodSelection:
    def setup_method(self):
        x, y, z = b.const("x"), b.const("y"), b.const("z")
        self.formula = b.implies(
            b.band(b.lt(x, y), b.lt(y, z)), b.lt(x, z)
        )

    def test_sd_uses_sd_everywhere(self):
        encoding = encode_sd(self.formula)
        assert set(encoding.method_of_class.values()) == {"SD"}
        assert encoding.stats.method == "SD"

    def test_eij_uses_eij_everywhere(self):
        encoding = encode_eij(self.formula)
        assert set(encoding.method_of_class.values()) == {"EIJ"}

    def test_hybrid_threshold_zero_is_sd(self):
        encoding = encode_hybrid(self.formula, sep_thold=0)
        assert set(encoding.method_of_class.values()) == {"SD"}

    def test_hybrid_large_threshold_is_eij(self):
        encoding = encode_hybrid(self.formula, sep_thold=10**9)
        assert set(encoding.method_of_class.values()) == {"EIJ"}

    @pytest.mark.parametrize(
        "budget,paper_rule,method",
        [(12, False, "EIJ"), (11, False, "SD"), (12, True, "SD")],
    )
    def test_equality_only_class_above_threshold(
        self, budget, paper_rule, method
    ):
        # Four constants, every pair compared: SepCnt 6, and at most
        # 4*3*2/2 = 12 transitivity clauses.
        w, x, y, z = (b.const(n) for n in "wxyz")
        pairs = [(w, x), (w, y), (w, z), (x, y), (x, z), (y, z)]
        formula = b.bnot(b.band(*[b.eq(p, q) for p, q in pairs]))
        encoding = encode_hybrid(
            formula, sep_thold=0, trans_budget=budget, paper_rule=paper_rule
        )
        assert set(encoding.method_of_class.values()) == {method}
        assert encoding.stats.eq_bound_classes == (method == "EIJ")
        assert encoding.stats.trans_clauses <= budget
        assert set(encode_sd(formula).method_of_class.values()) == {"SD"}

    def test_hybrid_mixes_by_class(self):
        # Two independent classes with different SepCnt.
        x, y, z, w = (b.const(n) for n in "xyzw")
        small = b.lt(x, y)
        big = b.band(*[
            b.lt(b.offset(z, -i), b.offset(w, i)) for i in range(4)
        ])
        formula = b.bnot(b.band(small, big))
        analysis = analyze_separation(formula)
        counts = sorted(c.sep_count for c in analysis.classes)
        threshold = counts[0]  # split the two classes
        encoding = encode_hybrid(formula, sep_thold=threshold)
        methods = set(encoding.method_of_class.values())
        assert methods == {"SD", "EIJ"}


class TestCorrectnessOnKnownFormulas:
    CASES = [
        # (formula factory, expected validity)
        (lambda: b.implies(b.eq(b.const("x"), b.const("y")),
                           b.eq(b.func("f")(b.const("x")),
                                b.func("f")(b.const("y")))), True),
        (lambda: b.implies(b.band(b.le(b.const("x"), b.const("y")),
                                  b.le(b.const("y"), b.const("x"))),
                           b.eq(b.const("x"), b.const("y"))), True),
        (lambda: b.lt(b.const("x"), b.succ(b.const("x"))), True),
        (lambda: b.eq(b.const("x"), b.const("y")), False),
        (lambda: b.implies(b.lt(b.const("x"), b.const("y")),
                           b.lt(b.const("y"), b.const("x"))), False),
    ]

    @pytest.mark.parametrize("case_index", range(len(CASES)))
    @pytest.mark.parametrize(
        "encoder",
        [encode_sd, encode_eij, encode_hybrid, encode_static_hybrid],
    )
    def test_all_encoders_agree(self, case_index, encoder):
        factory, expected = self.CASES[case_index]
        encoding = encoder(sep(factory()))
        assert is_valid(encoding) == expected


class TestEncodingStructure:
    def test_f_bool_shape(self):
        x, y = b.const("x"), b.const("y")
        encoding = encode_eij(b.bnot(b.lt(b.succ(x), y)))
        # F_bool is F_trans => F_bvar; check_formula its negation.
        assert encoding.f_bool is not None
        assert encoding.check_formula is not None

    def test_eij_equality_split_into_bounds(self):
        x, y = b.const("x"), b.const("y")
        encoding = encode_eij(b.bnot(b.eq(b.succ(x), y)))
        # One equality with an offset: two bound variables.
        assert encoding.registry.var_count() == 2

    def test_equality_only_class_uses_eq_vars(self):
        x, y, z = b.const("x"), b.const("y"), b.const("z")
        formula = b.bnot(b.band(b.eq(x, y), b.eq(y, z)))
        encoding = encode_eij(formula)
        assert len(encoding.registry.all_eq_vars()) >= 2
        assert encoding.registry.var_count() == 0  # no bound splitting

    def test_sd_bits_allocated_per_class_var(self):
        x, y = b.const("x"), b.const("y")
        encoding = encode_sd(b.bnot(b.lt(x, y)))
        assert set(encoding.var_bits) == {x, y}
        widths = {len(bits) for bits in encoding.var_bits.values()}
        assert len(widths) == 1  # same class, same width

    def test_stats_counters(self):
        x, y, z = b.const("x"), b.const("y"), b.const("z")
        formula = b.implies(b.band(b.lt(x, y), b.lt(y, z)), b.lt(x, z))
        encoding = encode_eij(formula)
        assert encoding.stats.eij_classes == 1
        assert encoding.stats.sep_vars > 0
        assert encoding.stats.trans_clauses > 0
        sd_encoding = encode_sd(formula)
        assert sd_encoding.stats.sd_classes == 1
        assert sd_encoding.stats.sd_bits > 0
        assert sd_encoding.stats.max_width > 0

    def test_static_hybrid_choice(self):
        # Equality-only class -> EIJ; inequality class -> SD.
        x, y, u, v = (b.const(n) for n in "xyuv")
        formula = b.bnot(b.band(b.eq(x, y), b.lt(u, v)))
        encoding = encode_static_hybrid(formula)
        methods = set(encoding.method_of_class.values())
        assert methods == {"SD", "EIJ"}


class TestPositiveEqualityInEncodings:
    def test_pure_p_formula_encodes_constant(self):
        # x = y appears only positively: under maximal diversity the
        # equation is false, so the formula is invalid, quickly.
        x, y = b.const("x"), b.const("y")
        encoding = encode_hybrid(b.eq(x, y))
        assert not is_valid(encoding)
        assert encoding.analysis.classes == []

    def test_p_vars_have_no_bits_or_bounds(self):
        x, y, z = b.const("x"), b.const("y"), b.const("z")
        # z = x positive; x < y makes x, y general.
        formula = b.band(b.eq(z, x), b.bnot(b.lt(x, y)))
        encoding = encode_sd(formula)
        assert z not in encoding.var_bits
        assert x in encoding.var_bits
