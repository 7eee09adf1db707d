"""Positive-equality (polarity) analysis on separation-logic formulas.

Following Bryant, German and Velev, every equation in the formula is
classified by the *polarity* of its occurrences: positive (even number of
enclosing negations), negative (odd), or both.  Symbolic constants that
occur **only inside positive equations** can be interpreted under *maximal
diversity* — distinct fresh values — which lets the encoders replace those
equations by constants.  The paper calls these constants :data:`V_p`; all
others are :data:`V_g`.

Rules (on ``F_sep``, i.e. after function elimination):

* the root formula is positive;
* ``not`` flips polarity, ``and``/``or`` preserve it, the antecedent of
  ``=>`` flips, ``iff`` makes both sides bipolar;
* a formula used as an ``ITE`` *condition* is bipolar (it can steer the
  enclosing atom either way);
* an equation whose polarity set is exactly ``{positive}`` is a *positive
  equation*; every ``<`` atom, and every equation that is negative or
  bipolar, makes all symbolic constants inside it general (``V_g``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set, Tuple

from ..logic.terms import (
    And,
    BoolConst,
    BoolVar,
    Eq,
    Formula,
    FuncApp,
    Iff,
    Implies,
    Ite,
    Lt,
    Node,
    Not,
    Offset,
    Or,
    PredApp,
    Term,
    Var,
)
from ..logic.traversal import iter_dag

__all__ = ["PolarityInfo", "analyze_polarity", "POS", "NEG"]

POS = 1
NEG = -1


@dataclass
class PolarityInfo:
    """Result of the analysis.

    Attributes
    ----------
    formula_polarity:
        formula node -> subset of {POS, NEG} under which it occurs.
    positive_equations:
        equations whose polarity is exactly {POS}.
    p_vars / g_vars:
        the paper's ``V_p`` and ``V_g`` partition of symbolic constants.
    """

    formula_polarity: Dict[Formula, FrozenSet[int]] = field(
        default_factory=dict
    )
    positive_equations: Set[Eq] = field(default_factory=set)
    p_vars: Set[Var] = field(default_factory=set)
    g_vars: Set[Var] = field(default_factory=set)


def analyze_polarity(formula: Formula) -> PolarityInfo:
    """Compute polarities and the V_p / V_g partition for ``F_sep``.

    ``formula`` must be application-free (run
    :func:`repro.transform.func_elim.eliminate_applications` first);
    a :class:`TypeError` is raised otherwise.
    """
    pol: Dict[Formula, Set[int]] = {}
    worklist: List[Tuple[Formula, int]] = [(formula, POS)]

    def push(node: Formula, polarity: int) -> None:
        entry = pol.setdefault(node, set())
        if polarity not in entry:
            entry.add(polarity)
            worklist.append((node, polarity))

    # Prime the worklist entry for the root.
    pol[formula] = {POS}

    while worklist:
        node, polarity = worklist.pop()
        if isinstance(node, (BoolConst, BoolVar)):
            continue
        if isinstance(node, Not):
            push(node.arg, -polarity)
        elif isinstance(node, (And, Or)):
            for arg in node.args:
                push(arg, polarity)
        elif isinstance(node, Implies):
            push(node.lhs, -polarity)
            push(node.rhs, polarity)
        elif isinstance(node, Iff):
            for side in (node.lhs, node.rhs):
                push(side, POS)
                push(side, NEG)
        elif isinstance(node, (Eq, Lt)):
            # Atom: formulas nested inside its terms are ITE conditions,
            # which are bipolar.
            for cond in _ite_conditions(node):
                push(cond, POS)
                push(cond, NEG)
        elif isinstance(node, PredApp):
            raise TypeError(
                "polarity analysis expects an application-free formula; "
                "found %r" % (node,)
            )
        else:
            raise TypeError("unknown formula kind: %r" % (type(node),))

    info = PolarityInfo(
        formula_polarity={n: frozenset(s) for n, s in pol.items()}
    )

    # Classify equations and collect V_g.
    general_vars: Set[Var] = set()
    all_vars: Set[Var] = set()
    for node, polarities in info.formula_polarity.items():
        if isinstance(node, Eq):
            atom_vars = _term_vars(node)
            all_vars.update(atom_vars)
            if polarities == frozenset({POS}):
                info.positive_equations.add(node)
            else:
                general_vars.update(atom_vars)
        elif isinstance(node, Lt):
            atom_vars = _term_vars(node)
            all_vars.update(atom_vars)
            general_vars.update(atom_vars)

    info.g_vars = general_vars
    info.p_vars = all_vars - general_vars
    return info


def _ite_conditions(atom: Formula) -> List[Formula]:
    """All ITE-condition formulas nested (at any depth) inside ``atom``."""
    out: List[Formula] = []
    stack: List[Term] = [t for t in atom.children()]
    seen: Set[int] = set()
    while stack:
        term = stack.pop()
        if id(term) in seen:
            continue
        seen.add(id(term))
        if isinstance(term, Ite):
            out.append(term.cond)
            stack.append(term.then)
            stack.append(term.els)
        elif isinstance(term, Offset):
            stack.append(term.base)
        elif isinstance(term, FuncApp):
            raise TypeError(
                "polarity analysis expects an application-free formula; "
                "found %r" % (term,)
            )
    return out


def _term_vars(atom: Formula) -> Set[Var]:
    """Symbolic constants in the *term* part of an atom.

    Constants that are only reachable through a nested ITE condition do not
    count as occurring in this atom — the condition is a formula of its own
    and its atoms are classified separately.
    """
    out: Set[Var] = set()
    stack: List[Term] = [t for t in atom.children()]
    seen: Set[int] = set()
    while stack:
        term = stack.pop()
        if id(term) in seen:
            continue
        seen.add(id(term))
        if isinstance(term, Var):
            out.add(term)
        elif isinstance(term, Offset):
            stack.append(term.base)
        elif isinstance(term, Ite):
            stack.append(term.then)
            stack.append(term.els)
    return out
