"""Alpha-invariant canonical keys and renamings for SUF formulas.

Two formulas that differ only in the *names* of their symbolic constants,
Boolean constants, and uninterpreted function/predicate symbols describe
the same decision problem: a verdict for one is a verdict for the other,
and a countermodel transfers by renaming.  This module computes

* :func:`canonical_key` — a process-stable structural digest that is
  identical for alpha-equivalent formulas (isomorphic formulas collide by
  construction), and
* :func:`canonicalize` — the renamed representative formula itself plus
  the renaming maps, so a countermodel found for the representative can
  be lifted back to any member of the isomorphism class
  (:func:`lift_interpretation`).

The result cache (:mod:`repro.service.cache`) keys verdicts on the
canonical key and solves the canonical *formula*, so a countermodel it
stores lifts to every member of the isomorphism class.

Construction
------------
Symbols are renamed to ``v0, v1, ...`` (integer constants), ``b0, ...``
(Boolean constants), ``f0, ...`` (function symbols) and ``q0, ...``
(predicate symbols) in order of first occurrence along a deterministic
DAG traversal.  Two details make the scheme independent of this process's
interning history (``Eq`` stores its arguments sorted by interning
``uid``, which is *not* stable across processes or renamings):

* a name-blind **shape refinement** (a few Weisfeiler–Lehman-style
  rounds) assigns every symbol a color from its occurrence structure
  only; ``Eq`` children are visited smaller-color-digest first, so the
  traversal order — and hence the first-occurrence numbering — does not
  depend on how ``Eq`` happened to store its arguments;
* the canonical text renders ``Eq`` with its two rendered arguments
  sorted, so the digest is invariant under argument order.

Soundness never depends on the refinement: the canonical form is always
an injective renaming of the input (plus ``Eq`` argument swaps, which
``=`` is symmetric under), so equal canonical *text* implies the same
decision problem.  In rare perfectly-symmetric cases two isomorphic
formulas may still receive different keys — a missed cache hit, never a
wrong verdict.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

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
CANONICAL_VERSION = 1

#: Upper bound on shape-refinement rounds (the loop stops as soon as the
#: color partition stops refining, which for 1-WL is a fixpoint).
_MAX_REFINE_ROUNDS = 32

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


def _digest(*parts: bytes) -> bytes:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
        h.update(b"\x1f")
    return h.digest()


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


def _wl_colors(root: Node) -> Dict[object, bytes]:
    """Name-blind colors for every DAG node and applied symbol.

    Bidirectional Weisfeiler–Lehman refinement over the term DAG plus one
    vertex per applied function/predicate symbol:

    * vertices start from their local, name-blind tag (node kind, offset
      constant, Boolean constant value, symbol arity);
    * each round folds in the multiset of (direction, position, neighbor
      color) over every incident edge — ``Eq``'s two argument positions
      share one label because ``Eq`` stores its arguments sorted by
      interning ``uid``, an artifact that must not influence the result —
      and every application node is linked to its symbol vertex;
    * the loop stops when the color partition stops refining (each new
      color folds in the old one, so refinement is monotone and a stalled
      round is a fixpoint).

    Downward edges give each color its subtree, upward edges its context,
    so two vertices share a final color only if no amount of structural
    information (short of full graph canonization) tells them apart.
    Keys are ``id(node)`` for DAG nodes and ``(kind, name)`` tuples for
    applied symbols; ``Var``/``BoolVar`` leaves are hash-consed (one node
    per name), so their node color doubles as the symbol color.
    """
    nodes = list(postorder(root))
    colors: Dict[object, bytes] = {}
    edges: Dict[object, List[Tuple[bytes, object]]] = {}

    def add_edge(a: object, tag: bytes, b: object) -> None:
        edges.setdefault(a, []).append((b"down:" + tag, b))
        edges.setdefault(b, []).append((b"up:" + tag, a))

    for node in nodes:
        tag: List[bytes] = [type(node).__name__.encode()]
        if isinstance(node, Offset):
            tag.append(str(node.k).encode())
        elif isinstance(node, BoolConst):
            tag.append(str(node.value).encode())
        colors[id(node)] = _digest(*tag)
        edges.setdefault(id(node), [])
        if isinstance(node, (FuncApp, PredApp)):
            symbol = _node_symbol(node)
            if symbol not in colors:
                colors[symbol] = _digest(
                    symbol[0].encode(), str(len(node.args)).encode()
                )
            add_edge(id(node), b"sym", symbol)
        for index, child in enumerate(node.children()):
            position = (
                b"eq" if isinstance(node, Eq) else str(index).encode()
            )
            add_edge(id(node), position, id(child))

    classes = len(set(colors.values()))
    for _ in range(_MAX_REFINE_ROUNDS):
        if classes == len(colors):
            break
        refined: Dict[object, bytes] = {}
        for key, color in colors.items():
            incident = sorted(
                _digest(tag, colors[other]) for tag, other in edges[key]
            )
            refined[key] = _digest(color, *incident)
        colors = refined
        refined_classes = len(set(colors.values()))
        if refined_classes == classes:
            break
        classes = refined_classes
    return colors


def _assign_names(
    root: Node, colors: Dict[object, bytes]
) -> Dict[Tuple[str, str], str]:
    """First-occurrence canonical names along a deterministic DFS.

    ``Eq`` children are visited smaller-color first (tie: stored order —
    a tie means even bidirectional WL refinement cannot tell the two
    subtrees apart), so the numbering does not depend on ``Eq``'s
    uid-sorted storage.
    """
    naming: Dict[Tuple[str, str], str] = {}
    counters: Dict[str, int] = {}
    seen: set = set()
    stack: List[Node] = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        symbol = _node_symbol(node)
        if symbol is not None and symbol not in naming:
            kind = symbol[0]
            index = counters.get(kind, 0)
            counters[kind] = index + 1
            naming[symbol] = "%s%d" % (_PREFIX[kind], index)
        children = list(node.children())
        if isinstance(node, Eq):
            children.sort(key=lambda c: colors[id(c)])
        # LIFO stack: push reversed so children are visited left-to-right.
        stack.extend(reversed(children))
    return naming


def _canonical_text(
    root: Node, naming: Dict[Tuple[str, str], str]
) -> str:
    """Render the canonical s-expression (``Eq`` arguments sorted)."""
    memo: Dict[int, str] = {}
    for node in postorder(root):
        if isinstance(node, Var):
            text = naming[(_KIND_VAR, node.name)]
        elif isinstance(node, BoolVar):
            text = naming[(_KIND_BOOL, node.name)]
        elif isinstance(node, BoolConst):
            text = "true" if node.value else "false"
        elif isinstance(node, Offset):
            text = "(+ %s %d)" % (memo[id(node.base)], node.k)
        elif isinstance(node, FuncApp):
            text = "(%s %s)" % (
                naming[(_KIND_FUNC, node.symbol)],
                " ".join(memo[id(a)] for a in node.args),
            )
        elif isinstance(node, PredApp):
            text = "(%s %s)" % (
                naming[(_KIND_PRED, node.symbol)],
                " ".join(memo[id(a)] for a in node.args),
            )
        elif isinstance(node, Ite):
            text = "(ite %s %s %s)" % (
                memo[id(node.cond)],
                memo[id(node.then)],
                memo[id(node.els)],
            )
        elif isinstance(node, Not):
            text = "(not %s)" % memo[id(node.arg)]
        elif isinstance(node, And):
            text = "(and %s)" % " ".join(memo[id(a)] for a in node.args)
        elif isinstance(node, Or):
            text = "(or %s)" % " ".join(memo[id(a)] for a in node.args)
        elif isinstance(node, Implies):
            text = "(=> %s %s)" % (memo[id(node.lhs)], memo[id(node.rhs)])
        elif isinstance(node, Iff):
            text = "(iff %s %s)" % (memo[id(node.lhs)], memo[id(node.rhs)])
        elif isinstance(node, Eq):
            args = sorted([memo[id(node.lhs)], memo[id(node.rhs)]])
            text = "(= %s %s)" % (args[0], args[1])
        elif isinstance(node, Lt):
            text = "(< %s %s)" % (memo[id(node.lhs)], memo[id(node.rhs)])
        else:
            raise TypeError("unknown node kind: %r" % (node,))
        memo[id(node)] = text
    return memo[id(root)]


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
    hash-consed node — for every member of the isomorphism class this
    process has seen); ``key`` is its process-stable digest; the four
    maps send canonical names back to the original formula's names.
    """

    formula: Formula
    key: str
    text: str
    vars: Dict[str, str] = field(default_factory=dict)
    bools: Dict[str, str] = field(default_factory=dict)
    funcs: Dict[str, str] = field(default_factory=dict)
    preds: Dict[str, str] = field(default_factory=dict)


def canonicalize(formula: Formula) -> CanonicalForm:
    """The canonical representative of ``formula``'s isomorphism class."""
    if not isinstance(formula, Formula):
        raise TypeError("canonicalize expects a Formula, got %r" % (formula,))
    naming = _assign_names(formula, _wl_colors(formula))
    text = _canonical_text(formula, naming)
    key = hashlib.sha256(
        ("suf-canonical-v%d\n%s" % (CANONICAL_VERSION, text)).encode()
    ).hexdigest()
    forward: Dict[str, Dict[str, str]] = {
        _KIND_VAR: {},
        _KIND_BOOL: {},
        _KIND_FUNC: {},
        _KIND_PRED: {},
    }
    backward: Dict[str, Dict[str, str]] = {
        _KIND_VAR: {},
        _KIND_BOOL: {},
        _KIND_FUNC: {},
        _KIND_PRED: {},
    }
    for (kind, original), canonical in naming.items():
        forward[kind][original] = canonical
        backward[kind][canonical] = original
    renamed = rename_symbols(
        formula,
        vars=forward[_KIND_VAR],
        bools=forward[_KIND_BOOL],
        funcs=forward[_KIND_FUNC],
        preds=forward[_KIND_PRED],
    )
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
    """Process-stable digest shared by every alpha-equivalent formula."""
    if not isinstance(formula, Formula):
        raise TypeError(
            "canonical_key expects a Formula, got %r" % (formula,)
        )
    naming = _assign_names(formula, _wl_colors(formula))
    text = _canonical_text(formula, naming)
    return hashlib.sha256(
        ("suf-canonical-v%d\n%s" % (CANONICAL_VERSION, text)).encode()
    ).hexdigest()


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
