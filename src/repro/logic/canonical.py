"""Alpha-invariant canonical keys and renamings for SUF formulas.

Two formulas that differ only in the *names* of their symbolic constants,
Boolean constants, and uninterpreted function/predicate symbols describe
the same decision problem: a verdict for one is a verdict for the other,
and a countermodel transfers by renaming.  This module computes

* :func:`canonicalize` — the renamed representative formula, its text
  and key, plus the renaming maps, so a countermodel found for the
  representative can be lifted back to any member of the class
  (:func:`lift_interpretation`), and
* :func:`canonical_key` — the key alone, a process-stable digest.

The result cache (:mod:`repro.service.cache`) keys verdicts on the
canonical key and solves the canonical *formula*, so a countermodel it
stores lifts to every member of the class.

Construction
------------
One left-to-right walk over the DAG names each symbol at its first
occurrence: ``v0, v1, ...`` (integer constants), ``b0, ...`` (Boolean
constants), ``f0, ...`` (function symbols) and ``q0, ...`` (predicate
symbols).  The representative is the formula renamed through those
names, its text is :func:`repro.logic.printer.to_sexpr` of the
representative, and the key is a SHA-256 digest of the text.

Every node keeps its children in the order they were written (``=``
included), and parsing, printing and :func:`rename_symbols` all keep
that order.  So the walk, and with it the key, depends only on the
formula's shape, never on names or on what this process interned
before.  Two formulas share a key exactly when one is a consistent
renaming of the other: equal text is the same formula up to names, so a
shared key never changes a verdict.  Formulas that differ only in how
an ``=`` is written (``(and (= x y) (< x z))`` against
``(and (= y x) (< x z))``) get different keys, which costs a cache hit,
never a wrong answer.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .printer import to_sexpr
from .semantics import Interpretation
from .terms import (
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
    Var,
)
from .traversal import postorder

__all__ = [
    "CanonicalForm",
    "canonicalize",
    "canonical_key",
    "rename_symbols",
    "lift_interpretation",
]

#: Bumping this invalidates every persisted key (schema evolution).
CANONICAL_VERSION = 3

_KIND_VAR = "var"
_KIND_BOOL = "bool"
_KIND_FUNC = "func"
_KIND_PRED = "pred"

_PREFIX = {
    _KIND_VAR: "v",
    _KIND_BOOL: "b",
    _KIND_FUNC: "f",
    _KIND_PRED: "q",
}


def _node_symbol(node: Node) -> Optional[Tuple[str, str]]:
    if isinstance(node, Var):
        return (_KIND_VAR, node.name)
    if isinstance(node, BoolVar):
        return (_KIND_BOOL, node.name)
    if isinstance(node, FuncApp):
        return (_KIND_FUNC, node.symbol)
    if isinstance(node, PredApp):
        return (_KIND_PRED, node.symbol)
    return None


def _assign_names(root: Node) -> Dict[str, Dict[str, str]]:
    """Each symbol's canonical name, by kind, in order of first occurrence.

    The preorder walk visits children left to right and each shared node
    once, at its first occurrence, so the numbering follows the DAG's
    shape only.
    """
    names: Dict[str, Dict[str, str]] = {kind: {} for kind in _PREFIX}
    seen: Set[int] = set()
    stack: List[Node] = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        symbol = _node_symbol(node)
        if symbol is not None:
            kind, name = symbol
            table = names[kind]
            if name not in table:
                table[name] = "%s%d" % (_PREFIX[kind], len(table))
        # LIFO stack: push reversed so children are visited left-to-right.
        stack.extend(reversed(node.children()))
    return names


def rename_symbols(
    root: Formula,
    vars: Optional[Dict[str, str]] = None,
    bools: Optional[Dict[str, str]] = None,
    funcs: Optional[Dict[str, str]] = None,
    preds: Optional[Dict[str, str]] = None,
) -> Formula:
    """Rebuild ``root`` with symbols renamed through the given maps.

    Missing entries keep their name.  The maps must be injective on the
    symbols they cover or distinct symbols would be merged (changing the
    formula's meaning); this is asserted.
    """
    vars = vars or {}
    bools = bools or {}
    funcs = funcs or {}
    preds = preds or {}
    for mapping in (vars, bools, funcs, preds):
        if len(set(mapping.values())) != len(mapping):
            raise ValueError("renaming map is not injective: %r" % mapping)
    memo: Dict[int, Node] = {}
    for node in postorder(root):
        new: Node
        if isinstance(node, Var):
            new = Var(vars.get(node.name, node.name))
        elif isinstance(node, BoolVar):
            new = BoolVar(bools.get(node.name, node.name))
        elif isinstance(node, BoolConst):
            new = node
        elif isinstance(node, Offset):
            new = Offset(memo[id(node.base)], node.k)
        elif isinstance(node, FuncApp):
            new = FuncApp(
                funcs.get(node.symbol, node.symbol),
                [memo[id(a)] for a in node.args],
            )
        elif isinstance(node, PredApp):
            new = PredApp(
                preds.get(node.symbol, node.symbol),
                [memo[id(a)] for a in node.args],
            )
        elif isinstance(node, Ite):
            new = Ite(
                memo[id(node.cond)], memo[id(node.then)], memo[id(node.els)]
            )
        elif isinstance(node, Not):
            new = Not(memo[id(node.arg)])
        elif isinstance(node, And):
            new = And(*[memo[id(a)] for a in node.args])
        elif isinstance(node, Or):
            new = Or(*[memo[id(a)] for a in node.args])
        elif isinstance(node, Implies):
            new = Implies(memo[id(node.lhs)], memo[id(node.rhs)])
        elif isinstance(node, Iff):
            new = Iff(memo[id(node.lhs)], memo[id(node.rhs)])
        elif isinstance(node, Eq):
            new = Eq(memo[id(node.lhs)], memo[id(node.rhs)])
        elif isinstance(node, Lt):
            new = Lt(memo[id(node.lhs)], memo[id(node.rhs)])
        else:
            raise TypeError("unknown node kind: %r" % (node,))
        memo[id(node)] = new
    result = memo[id(root)]
    if not isinstance(result, Formula):
        raise TypeError("renaming did not produce a formula")
    return result


@dataclass
class CanonicalForm:
    """A formula's canonical representative plus the way back.

    ``formula`` is the alpha-renamed representative (identical — as a
    hash-consed node — for every member of the class this process has
    seen); ``text`` is its :func:`~repro.logic.printer.to_sexpr`
    rendering and ``key`` the process-stable digest of that text; the
    four maps send canonical names back to the original formula's names.
    """

    formula: Formula
    key: str
    text: str
    vars: Dict[str, str] = field(default_factory=dict)
    bools: Dict[str, str] = field(default_factory=dict)
    funcs: Dict[str, str] = field(default_factory=dict)
    preds: Dict[str, str] = field(default_factory=dict)


def canonicalize(formula: Formula) -> CanonicalForm:
    """The canonical representative of ``formula``'s renaming class."""
    if not isinstance(formula, Formula):
        raise TypeError("canonicalize expects a Formula, got %r" % (formula,))
    forward = _assign_names(formula)
    renamed = rename_symbols(
        formula,
        vars=forward[_KIND_VAR],
        bools=forward[_KIND_BOOL],
        funcs=forward[_KIND_FUNC],
        preds=forward[_KIND_PRED],
    )
    text = to_sexpr(renamed)
    key = hashlib.sha256(
        ("suf-canonical-v%d\n%s" % (CANONICAL_VERSION, text)).encode()
    ).hexdigest()
    backward = {
        kind: {canonical: original for original, canonical in names.items()}
        for kind, names in forward.items()
    }
    return CanonicalForm(
        formula=renamed,
        key=key,
        text=text,
        vars=backward[_KIND_VAR],
        bools=backward[_KIND_BOOL],
        funcs=backward[_KIND_FUNC],
        preds=backward[_KIND_PRED],
    )


def canonical_key(formula: Formula) -> str:
    """Process-stable digest shared by every renaming of ``formula``.

    Two formulas share it exactly when one is a consistent renaming of
    the other, with every ``=`` written the same way round.
    """
    return canonicalize(formula).key


def lift_interpretation(
    model: Interpretation, form: CanonicalForm
) -> Interpretation:
    """Translate a model of ``form.formula`` back to original names.

    Used to hand a countermodel found for the canonical representative
    (or fetched from the cache) back to the caller in the vocabulary of
    the formula they actually submitted.  Entries for names outside the
    renaming (the canonical formula should not have any) pass through
    unchanged.
    """
    return Interpretation(
        vars={
            form.vars.get(name, name): value
            for name, value in model.vars.items()
        },
        bools={
            form.bools.get(name, name): value
            for name, value in model.bools.items()
        },
        funcs={
            form.funcs.get(name, name): dict(table)
            for name, table in model.funcs.items()
        },
        preds={
            form.preds.get(name, name): dict(table)
            for name, table in model.preds.items()
        },
        func_default=model.func_default,
        pred_default=model.pred_default,
    )
