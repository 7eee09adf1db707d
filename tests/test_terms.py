"""Unit tests for the hash-consed AST (:mod:`repro.logic.terms`)."""

import pytest

from repro.logic.terms import (
    And,
    BoolConst,
    BoolVar,
    Eq,
    FALSE,
    FuncApp,
    Iff,
    Implies,
    Ite,
    Lt,
    Not,
    Offset,
    Or,
    PredApp,
    TRUE,
    Var,
)


class TestHashConsing:
    def test_vars_are_interned(self):
        assert Var("x") is Var("x")
        assert Var("x") is not Var("y")

    def test_compound_nodes_are_interned(self):
        x, y = Var("x"), Var("y")
        assert Eq(x, y) is Eq(x, y)
        assert And(Eq(x, y), Lt(x, y)) is And(Eq(x, y), Lt(x, y))

    def test_structural_equality_and_hash(self):
        x, y = Var("x"), Var("y")
        a = Or(Eq(x, y), Lt(y, x))
        c = Or(Eq(x, y), Lt(y, x))
        assert a == c
        assert hash(a) == hash(c)

    def test_uids_are_unique_and_ordered(self):
        a = Var("uid_a")
        c = Var("uid_c")
        assert a.uid != c.uid


class TestOffsets:
    def test_zero_offset_is_identity(self):
        x = Var("x")
        assert Offset(x, 0) is x

    def test_nested_offsets_collapse(self):
        x = Var("x")
        assert Offset(Offset(x, 3), -1) is Offset(x, 2)
        assert Offset(Offset(x, 2), -2) is x

    def test_succ_pred_cancel(self):
        # The paper's rewrite rules succ(pred(T)) -> T hold structurally.
        x = Var("x")
        assert Offset(Offset(x, -1), 1) is x

    def test_offset_requires_term(self):
        with pytest.raises(TypeError):
            Offset(TRUE, 1)


class TestIte:
    def test_constant_condition_collapses(self):
        x, y = Var("x"), Var("y")
        assert Ite(TRUE, x, y) is x
        assert Ite(FALSE, x, y) is y

    def test_equal_branches_collapse(self):
        x, y = Var("x"), Var("y")
        assert Ite(Eq(x, y), x, x) is x

    def test_type_checks(self):
        x, y = Var("x"), Var("y")
        with pytest.raises(TypeError):
            Ite(x, x, y)
        with pytest.raises(TypeError):
            Ite(Eq(x, y), TRUE, y)


class TestBooleanSimplification:
    def test_not_involution(self):
        p = BoolVar("p")
        assert Not(Not(p)) is p
        assert Not(TRUE) is FALSE
        assert Not(FALSE) is TRUE

    def test_and_flattening_and_units(self):
        p, q, r = BoolVar("p"), BoolVar("q"), BoolVar("r")
        assert And(p, And(q, r)) is And(p, q, r)
        assert And(p, TRUE) is p
        assert And(p, FALSE) is FALSE
        assert And() is TRUE
        assert And(p, p) is p

    def test_or_flattening_and_units(self):
        p, q, r = BoolVar("p"), BoolVar("q"), BoolVar("r")
        assert Or(p, Or(q, r)) is Or(p, q, r)
        assert Or(p, FALSE) is p
        assert Or(p, TRUE) is TRUE
        assert Or() is FALSE
        assert Or(p, p) is p

    def test_implies_units(self):
        p, q = BoolVar("p"), BoolVar("q")
        assert Implies(TRUE, p) is p
        assert Implies(FALSE, p) is TRUE
        assert Implies(p, TRUE) is TRUE
        assert Implies(p, FALSE) is Not(p)

    def test_iff_units(self):
        p, q = BoolVar("p"), BoolVar("q")
        assert Iff(TRUE, p) is p
        assert Iff(p, TRUE) is p
        assert Iff(FALSE, p) is Not(p)
        assert Iff(p, p) is TRUE

    def test_bool_const_identity(self):
        assert BoolConst(True) is TRUE
        assert BoolConst(False) is FALSE


class TestAtomFolding:
    def test_eq_reflexive(self):
        x = Var("x")
        assert Eq(x, x) is TRUE

    def test_eq_same_base_offsets_fold(self):
        x = Var("x")
        assert Eq(Offset(x, 2), Offset(x, 2)) is TRUE
        assert Eq(Offset(x, 1), Offset(x, 3)) is FALSE
        assert Eq(x, Offset(x, 1)) is FALSE

    def test_eq_keeps_written_order(self):
        # Arguments stay as written, whichever constant was interned
        # first, so the two orientations are two nodes.
        x = Var("written_order_x")
        y = Var("written_order_y")
        assert x.uid < y.uid
        assert Eq(x, y).lhs is x
        assert Eq(y, x).lhs is y
        assert Eq(x, y) is not Eq(y, x)

    def test_lt_irreflexive(self):
        x = Var("x")
        assert Lt(x, x) is FALSE

    def test_lt_same_base_offsets_fold(self):
        x = Var("x")
        assert Lt(x, Offset(x, 1)) is TRUE
        assert Lt(Offset(x, 1), x) is FALSE
        assert Lt(Offset(x, -3), Offset(x, -1)) is TRUE


class TestApplications:
    def test_func_app_needs_args(self):
        with pytest.raises(ValueError):
            FuncApp("f", [])

    def test_pred_app_needs_args(self):
        with pytest.raises(ValueError):
            PredApp("p", [])

    def test_func_app_arg_types(self):
        with pytest.raises(TypeError):
            FuncApp("f", [TRUE])

    def test_children(self):
        x, y = Var("x"), Var("y")
        app = FuncApp("f", [x, y])
        assert app.children() == (x, y)
        assert app.symbol == "f"
