"""Focused tests for countermodel decoding (repro.core.decision internals)."""

import pytest

from repro.core.decision import (
    boolvar_model,
    check_validity,
    decode_countermodel,
    lift_countermodel,
)
from repro.encodings.hybrid import EIJ, LAZY, encode_eij, encode_sd
from repro.logic import builders as b
from repro.logic.semantics import evaluate, evaluate_term
from repro.logic.terms import TRUE
from repro.sat.solver import solve_cnf
from repro.sat.tseitin import to_cnf
from repro.logic.traversal import collect_vars
from repro.transform.func_elim import eliminate_applications


class TestDecodeSd:
    def test_values_respect_atoms(self):
        x, y, z = b.const("x"), b.const("y"), b.const("z")
        formula = b.bnot(b.band(b.lt(x, y), b.lt(y, z)))
        encoding = encode_sd(formula)
        cnf = to_cnf(encoding.check_formula)
        result = solve_cnf(cnf)
        assert result.is_sat  # the formula is invalid
        model = decode_countermodel(
            encoding, boolvar_model(cnf, result.model)
        )
        assert model.vars["x"] < model.vars["y"] < model.vars["z"]


class TestDecodeEij:
    def test_bound_completion(self):
        x, y = b.const("x"), b.const("y")
        formula = b.bnot(b.lt(b.succ(x), y))  # invalid: pick y > x + 1
        encoding = encode_eij(formula)
        cnf = to_cnf(encoding.check_formula)
        result = solve_cnf(cnf)
        assert result.is_sat
        model = decode_countermodel(encoding, boolvar_model(cnf, result.model))
        assert model.vars["x"] + 1 < model.vars["y"]

    def test_equality_partition(self):
        x, y, z = b.const("x"), b.const("y"), b.const("z")
        # Invalid: needs x = y but y != z.
        formula = b.bnot(b.band(b.eq(x, y), b.bnot(b.eq(y, z))))
        encoding = encode_eij(formula)
        cnf = to_cnf(encoding.check_formula)
        result = solve_cnf(cnf)
        assert result.is_sat
        model = decode_countermodel(encoding, boolvar_model(cnf, result.model))
        assert model.vars["x"] == model.vars["y"]
        assert model.vars["y"] != model.vars["z"]


class TestLift:
    def test_function_table_matches_ite_semantics(self):
        x, y = b.const("x"), b.const("y")
        f = b.func("f")
        formula = b.bnot(
            b.band(b.eq(x, y), b.bnot(b.eq(f(x), f(y))))
        )
        # Valid (functional consistency): no countermodel.
        assert check_validity(formula).valid

        # An invalid variant: f(x) != f(y) is satisfiable when x != y.
        formula2 = b.eq(f(x), f(y))
        result = check_validity(formula2)
        assert result.valid is False
        model = result.counterexample
        fx = model.apply_func("f", (model.vars["x"],))
        fy = model.apply_func("f", (model.vars["y"],))
        assert fx != fy

    def test_predicate_tables_lifted(self):
        x, y = b.const("x"), b.const("y")
        p = b.pred_symbol("p")
        formula = b.implies(p(x), p(y))
        result = check_validity(formula)
        assert result.valid is False
        model = result.counterexample
        assert model.apply_pred("p", (model.vars["x"],)) is True
        assert model.apply_pred("p", (model.vars["y"],)) is False

    def test_lift_handles_vanished_arguments(self):
        # Single-occurrence application: its argument's constant vanishes
        # from F_sep entirely; the lift must still build a table.
        x, y = b.const("x"), b.const("y")
        g = b.func("g")
        formula = b.eq(g(b.succ(x)), y)
        result = check_validity(formula)
        assert result.valid is False
        model = result.counterexample
        assert not evaluate(formula, model)
        assert "x" in model.vars


class TestEqualityOnlyClasses:
    """Equality-only EIJ classes decode through the eq-var union-find,
    not through difference bounds (`_decode_equality_class`)."""

    def test_transitive_merge_collapses_to_one_value(self):
        x, y, z = b.const("x"), b.const("y"), b.const("z")
        # Falsified by x = y = z: both eq-vars true, one merged group.
        formula = b.bnot(b.band(b.eq(x, y), b.eq(y, z)))
        encoding = encode_eij(formula)
        assert set(encoding.method_of_class.values()) == {EIJ}
        assert encoding.registry.all_eq_vars()
        cnf = to_cnf(encoding.check_formula)
        result = solve_cnf(cnf)
        assert result.is_sat
        model = decode_countermodel(
            encoding, boolvar_model(cnf, result.model)
        )
        assert model.vars["x"] == model.vars["y"] == model.vars["z"]

    def test_cvc_encoding_is_every_class_lazy(self):
        # The CVC baseline's encoding: every class LAZY, so no equality
        # variables and no F_trans; decoding goes through the bounds.
        x, y, z = b.const("x"), b.const("y"), b.const("z")
        formula = b.bnot(b.band(b.eq(x, y), b.eq(y, z)))
        encoding = encode_eij(formula, transitivity=False)
        assert set(encoding.method_of_class.values()) == {LAZY}
        assert encoding.stats.lazy_classes == encoding.stats.num_classes
        assert not encoding.registry.all_eq_vars()
        assert encoding.registry.all_vars()
        assert encoding.f_trans is TRUE
        cnf = to_cnf(encoding.check_formula)
        result = solve_cnf(cnf)
        assert result.is_sat
        model = decode_countermodel(
            encoding, boolvar_model(cnf, result.model)
        )
        assert model.vars["x"] == model.vars["y"] == model.vars["z"]

    def test_all_false_eq_vars_stay_distinct(self):
        x, y, z = b.const("x"), b.const("y"), b.const("z")
        # Falsified only when all three constants are pairwise distinct.
        formula = b.bor(b.eq(x, y), b.eq(y, z), b.eq(x, z))
        encoding = encode_eij(formula)
        cnf = to_cnf(encoding.check_formula)
        result = solve_cnf(cnf)
        assert result.is_sat
        model = decode_countermodel(
            encoding, boolvar_model(cnf, result.model)
        )
        assert len({model.vars[n] for n in ("x", "y", "z")}) == 3
        assert not evaluate(formula, model)

    def test_uncompared_constant_defaults(self):
        # A constant never compared in any atom still gets a value.
        x, y, w = b.const("x"), b.const("y"), b.const("w")
        formula = b.band(b.eq(x, y), b.eq(w, w))  # w folds away
        encoding = encode_eij(formula)
        cnf = to_cnf(encoding.check_formula)
        result = solve_cnf(cnf)
        assert result.is_sat
        model = decode_countermodel(
            encoding, boolvar_model(cnf, result.model)
        )
        assert not evaluate(formula, model)


class TestPureVpOffsetAtoms:
    """Atoms comparing only positive-equality (V_p) constants — possibly
    through offsets — are recorded by no separation class; the maximal-
    diversity spacing must still exceed every offset in the formula."""

    def test_offset_between_two_vp_constants(self):
        x, y = b.const("x"), b.const("y")
        f = b.func("f")
        # f(x) and f(y) become V_p constants; the atom compares them
        # through an offset larger than any class-recorded span.
        formula = b.eq(f(x), b.offset(f(y), 7))
        result = check_validity(formula, method="hybrid")
        assert result.valid is False
        assert not evaluate(formula, result.counterexample)

    def test_vp_spacing_exceeds_offsets(self):
        x, y = b.const("x"), b.const("y")
        f = b.func("f")
        formula = b.eq(f(x), b.offset(f(y), 7))
        f_sep, _ = eliminate_applications(formula)
        encoding = encode_eij(f_sep)
        analysis = encoding.analysis
        assert len(analysis.p_vars) >= 2
        cnf = to_cnf(encoding.check_formula)
        result = solve_cnf(cnf)
        assert result.is_sat
        model = decode_countermodel(
            encoding, boolvar_model(cnf, result.model)
        )
        p_values = sorted(
            model.vars[v.name] for v in analysis.p_vars
        )
        for lo, hi in zip(p_values, p_values[1:]):
            assert hi - lo > 7  # spacing beats the largest offset
        assert not evaluate(f_sep, model)

    def test_vp_values_clear_general_values(self):
        x, y, u = b.const("x"), b.const("y"), b.const("u")
        f = b.func("f")
        formula = b.implies(b.lt(u, x), b.eq(f(x), b.offset(f(y), 3)))
        result = check_validity(formula, method="eij")
        assert result.valid is False
        assert not evaluate(formula, result.counterexample)


class TestSingleOccurrenceApplications:
    """The first occurrence of ``f(a)`` is replaced by its fresh constant
    alone, so ``a``'s constants can vanish from F_sep; the lift must
    re-materialize them (with defaults) to build the table key."""

    def test_nested_single_occurrences(self):
        x, y = b.const("x"), b.const("y")
        f, g = b.func("f"), b.func("g")
        formula = b.eq(g(f(x)), y)
        result = check_validity(formula)
        assert result.valid is False
        model = result.counterexample
        assert not evaluate(formula, model)
        # The chain must be table-consistent: g(f(x)) evaluated through
        # the lifted tables equals the value the atom was decided on.
        fx = model.apply_func("f", (evaluate_term(x, model),))
        gfx = model.apply_func("g", (fx,))
        assert gfx != model.vars["y"]

    def test_single_occurrence_predicate(self):
        x = b.const("x")
        p = b.pred_symbol("p")
        formula = p(b.succ(x))
        result = check_validity(formula)
        assert result.valid is False
        model = result.counterexample
        assert not evaluate(formula, model)
        assert model.apply_pred("p", (model.vars["x"] + 1,)) is False

    def test_lift_defaults_vanished_constants_directly(self):
        from repro.logic.semantics import Interpretation

        x, y = b.const("x"), b.const("y")
        f = b.func("f")
        formula = b.eq(f(x), y)
        f_sep, info = eliminate_applications(formula)
        # A sep-level model that only mentions what survives in F_sep.
        sep_names = {v.name for v in collect_vars(f_sep)}
        assert "x" not in sep_names  # x vanished with the single occurrence
        sep_model = Interpretation(
            vars={name: 5 for name in sep_names}, bools={}
        )
        lifted = lift_countermodel(info, f_sep, sep_model)
        assert "x" in lifted.vars  # defaulted, not KeyError
        assert lifted.apply_func("f", (lifted.vars["x"],)) == 5


class TestMixedClassDecoding:
    def test_sd_and_eij_classes_together(self):
        # Two classes: one pushed to SD by a tiny threshold, one kept EIJ.
        x, y = b.const("x"), b.const("y")
        u, v = b.const("u"), b.const("v")
        big = b.band(*[
            b.lt(b.offset(x, -i), b.offset(y, i)) for i in range(3)
        ])
        small = b.lt(u, v)
        formula = b.bnot(b.band(big, small))
        from repro.encodings.hybrid import encode_hybrid
        from repro.separation.analysis import analyze_separation

        analysis = analyze_separation(formula)
        counts = sorted(c.sep_count for c in analysis.classes)
        encoding = encode_hybrid(formula, sep_thold=counts[0])
        assert set(encoding.method_of_class.values()) == {"SD", "EIJ"}
        cnf = to_cnf(encoding.check_formula)
        result = solve_cnf(cnf)
        assert result.is_sat
        model = decode_countermodel(encoding, boolvar_model(cnf, result.model))
        assert not evaluate(formula, model)
