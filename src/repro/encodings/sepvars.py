"""Registry of per-constraint (EIJ) Boolean variables.

Every EIJ Boolean variable denotes one *difference bound* over a canonical
ordered pair of symbolic constants::

    B(x, y, c)   <->   x - y <= c          (x.uid < y.uid)

Both polarities are meaningful over the integers::

    not B(x, y, c)   <->   y - x <= -c - 1

so every literal over registry variables asserts exactly one bound, which is
what makes the transitivity-constraint generation uniform.  Equalities are
split into the conjunction of two bounds (``x = y + c`` becomes
``x - y <= c  and  y - x <= -c``), matching the integer semantics.

The registry hands out :class:`~repro.logic.terms.BoolVar` literals so the
rest of the encoder can keep building ordinary propositional formulas, and
remembers enough structure (pair -> constants, var -> bound) for the
transitivity generator and for counterexample decoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..logic.terms import BoolVar, Formula, Not, Var

__all__ = ["Bound", "SepVarRegistry"]

VAR_PREFIX = "$le"


@dataclass(frozen=True)
class Bound:
    """The difference bound ``lhs - rhs <= c``."""

    lhs: Var
    rhs: Var
    c: int

    def negation(self) -> "Bound":
        return Bound(self.rhs, self.lhs, -self.c - 1)

    def __str__(self) -> str:
        return "%s - %s <= %d" % (self.lhs.name, self.rhs.name, self.c)


class SepVarRegistry:
    """Allocates and tracks EIJ Boolean variables for difference bounds."""

    def __init__(self) -> None:
        # canonical (x, y, c) -> BoolVar, with x.uid < y.uid
        self._vars: Dict[Tuple[Var, Var, int], BoolVar] = {}
        self._bound_of: Dict[BoolVar, Bound] = {}
        # ordered pair (u, v) -> set of constants c with a literal u-v<=c
        self._constants: Dict[Tuple[Var, Var], Set[int]] = {}
        # canonical (x, y) -> BoolVar for offset-free equality x = y
        # (used by equality-only classes, Bryant–Velev style)
        self._eq_vars: Dict[Tuple[Var, Var], BoolVar] = {}
        self._eq_pair_of: Dict[BoolVar, Tuple[Var, Var]] = {}
        self.atom_var_count = 0  # vars created for original atoms
        self.derived_var_count = 0  # vars created during transitivity

    # -- literal construction ------------------------------------------------

    def literal(self, x: Var, y: Var, c: int, derived: bool = False) -> Formula:
        """Literal asserting ``x - y <= c`` (a BoolVar or its negation)."""
        if x is y:
            raise ValueError("bounds must relate two distinct constants")
        if x.uid < y.uid:
            return self._var(x, y, c, derived)
        return Not(self._var(y, x, -c - 1, derived))

    def _var(self, x: Var, y: Var, c: int, derived: bool) -> BoolVar:
        key = (x, y, c)
        var = self._vars.get(key)
        if var is None:
            var = BoolVar("%s:%s|%s|%d" % (VAR_PREFIX, x.name, y.name, c))
            self._vars[key] = var
            self._bound_of[var] = Bound(x, y, c)
            self._constants.setdefault((x, y), set()).add(c)
            self._constants.setdefault((y, x), set()).add(-c - 1)
            if derived:
                self.derived_var_count += 1
            else:
                self.atom_var_count += 1
        return var

    def eq_var(self, x: Var, y: Var, derived: bool = False) -> BoolVar:
        """Single Boolean variable for the offset-free equality ``x = y``.

        Used for *equality-only* classes, where one variable per pair and
        triangle constraints suffice (Bryant–Velev; the paper notes this
        subclass has only polynomially many transitivity constraints).
        """
        if x is y:
            raise ValueError("equality variables relate distinct constants")
        if x.uid > y.uid:
            x, y = y, x
        var = self._eq_vars.get((x, y))
        if var is None:
            var = BoolVar("$eq:%s|%s" % (x.name, y.name))
            self._eq_vars[(x, y)] = var
            self._eq_pair_of[var] = (x, y)
            if derived:
                self.derived_var_count += 1
            else:
                self.atom_var_count += 1
        return var

    def eq_pair_of(self, var: BoolVar) -> Optional[Tuple[Var, Var]]:
        """The pair an equality variable denotes (``None`` if foreign)."""
        return self._eq_pair_of.get(var)

    def eq_pairs(self) -> List[Tuple[Var, Var]]:
        return sorted(
            self._eq_vars, key=lambda p: (p[0].uid, p[1].uid)
        )

    # -- queries -------------------------------------------------------------

    def bound_of(self, var: BoolVar) -> Optional[Bound]:
        """The bound a registry variable denotes (``None`` for foreign vars)."""
        return self._bound_of.get(var)

    def bound_of_literal(self, literal: Formula) -> Optional[Bound]:
        if isinstance(literal, Not):
            inner = self.bound_of(literal.arg)
            return inner.negation() if inner is not None else None
        if isinstance(literal, BoolVar):
            return self.bound_of(literal)
        return None

    def constants(self, u: Var, v: Var) -> Set[int]:
        """Constants ``c`` for which a literal ``u - v <= c`` exists."""
        return self._constants.get((u, v), set())

    def pairs(self) -> List[Tuple[Var, Var]]:
        """All canonical pairs with at least one variable."""
        out = {(x, y) for (x, y, _) in self._vars}
        return sorted(out, key=lambda p: (p[0].uid, p[1].uid))

    def all_vars(self) -> List[BoolVar]:
        return sorted(self._bound_of, key=lambda v: v.name)

    def all_eq_vars(self) -> List[BoolVar]:
        return sorted(self._eq_pair_of, key=lambda v: v.name)

    def var_count(self) -> int:
        return len(self._bound_of)

    def cnf_var_ids(self, cnf: "object") -> List[int]:
        """CNF variable ids of the registry's EIJ/equality variables.

        ``cnf`` is a :class:`repro.sat.cnf.Cnf` built from a formula over
        this registry's variables (duck-typed to avoid an import cycle).
        Variables the Tseitin transform never saw are skipped, so the
        result is exactly the separation predicates that survived into
        the clause database — the preferred cube-splitting points for
        cube-and-conquer (paper §4: SepCnt counts these case splits).
        The order is deterministic (sorted ids).
        """
        lookup = getattr(cnf, "lookup")
        ids: Set[int] = set()
        for var in list(self._bound_of) + list(self._eq_pair_of):
            cnf_id = lookup(var)
            if cnf_id is not None:
                ids.add(cnf_id)
        return sorted(ids)

    def cnf_bounds(
        self, cnf: "object", among: Optional[Set[Var]] = None
    ) -> Dict[int, Bound]:
        """The bound each difference-bound variable in ``cnf`` asserts.

        Keys are CNF variable ids, as a
        :class:`~repro.theory.difference.DifferenceTheory` takes them;
        variables ``cnf`` does not hold are skipped.  ``among``, when
        given, keeps only the bounds over those constants.
        """
        lookup = getattr(cnf, "lookup")
        atoms: Dict[int, Bound] = {}
        for var, bound in self._bound_of.items():
            if among is not None and bound.lhs not in among:
                continue
            cnf_id = lookup(var)
            if cnf_id is not None:
                atoms[cnf_id] = bound
        return atoms

    # -- model decoding -------------------------------------------------------

    def asserted_bounds(self, model: Dict[BoolVar, bool]) -> List[Bound]:
        """Bounds asserted by a full/partial Boolean model.

        For each registry variable present in ``model``: its bound when
        assigned true, the negated bound when assigned false.
        """
        out: List[Bound] = []
        for var, bound in self._bound_of.items():
            if var not in model:
                continue
            out.append(bound if model[var] else bound.negation())
        return out
