"""DAG traversal utilities over SUF formulas.

All walks visit each distinct node exactly once (the AST is hash-consed, so
"distinct" means object identity).  Iterative worklists are used throughout
-- paper-scale formulas reach 7500 DAG nodes and deep `And` spines, which
would overflow Python's recursion limit.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Set

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
    Term,
    Var,
)

__all__ = [
    "iter_dag",
    "postorder",
    "dag_size",
    "collect_vars",
    "collect_bool_vars",
    "collect_func_symbols",
    "collect_pred_symbols",
    "collect_atoms",
    "max_offset_magnitude",
    "map_terms",
]


def iter_dag(root: Node) -> Iterator[Node]:
    """Yield every distinct node reachable from ``root`` (preorder)."""
    seen: Set[int] = set()
    stack: List[Node] = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        stack.extend(node.children())


def postorder(root: Node) -> Iterator[Node]:
    """Yield every distinct node with children before parents."""
    seen: Set[int] = set()
    emitted: Set[int] = set()
    stack: List[Node] = [root]
    while stack:
        node = stack[-1]
        if id(node) in emitted:
            stack.pop()
            continue
        if id(node) in seen:
            stack.pop()
            emitted.add(id(node))
            yield node
            continue
        seen.add(id(node))
        for child in node.children():
            if id(child) not in emitted:
                stack.append(child)


def dag_size(root: Node) -> int:
    """Number of distinct DAG nodes — the paper's formula-size measure."""
    return sum(1 for _ in iter_dag(root))


def collect_vars(root: Node) -> List[Var]:
    """All integer symbolic constants, sorted by name."""
    out = {n for n in iter_dag(root) if isinstance(n, Var)}
    return sorted(out, key=lambda v: v.name)


def collect_bool_vars(root: Node) -> List[BoolVar]:
    """All symbolic Boolean constants, sorted by name."""
    out = {n for n in iter_dag(root) if isinstance(n, BoolVar)}
    return sorted(out, key=lambda v: v.name)


def collect_func_symbols(root: Node) -> List[str]:
    """Names of uninterpreted function symbols of arity >= 1."""
    out = {n.symbol for n in iter_dag(root) if isinstance(n, FuncApp)}
    return sorted(out)


def collect_pred_symbols(root: Node) -> List[str]:
    """Names of uninterpreted predicate symbols of arity >= 1."""
    out = {n.symbol for n in iter_dag(root) if isinstance(n, PredApp)}
    return sorted(out)


def collect_atoms(root: Node) -> List[Formula]:
    """All ``=`` and ``<`` atoms in the DAG, in deterministic uid order."""
    out = {n for n in iter_dag(root) if isinstance(n, (Eq, Lt))}
    return sorted(out, key=lambda a: a.uid)


def max_offset_magnitude(root: Node) -> int:
    """Largest ``|k|`` over all ``Offset`` nodes (0 when there are none)."""
    best = 0
    for node in iter_dag(root):
        if isinstance(node, Offset):
            best = max(best, abs(node.k))
    return best


def map_terms(root: Node, fn: Callable[[Term], Term]) -> Node:
    """Rebuild ``root`` bottom-up, replacing each *leaf-most mapped* term.

    ``fn`` is applied to every term node after its children were rebuilt; it
    may return the node unchanged.  Formula structure is rebuilt as needed.
    Sharing is preserved via a memo table.
    """
    memo: Dict[Node, Node] = {}

    def rebuild(node: Node) -> Node:
        new: Node
        if isinstance(node, Var):
            new = fn(node)
        elif isinstance(node, Offset):
            new = fn(Offset(memo[node.base], node.k))
        elif isinstance(node, FuncApp):
            new = fn(FuncApp(node.symbol, [memo[a] for a in node.args]))
        elif isinstance(node, Ite):
            new = fn(Ite(memo[node.cond], memo[node.then], memo[node.els]))
        elif isinstance(node, (BoolConst, BoolVar)):
            new = node
        elif isinstance(node, PredApp):
            new = PredApp(node.symbol, [memo[a] for a in node.args])
        elif isinstance(node, Not):
            new = Not(memo[node.arg])
        elif isinstance(node, And):
            new = And(*[memo[a] for a in node.args])
        elif isinstance(node, Or):
            new = Or(*[memo[a] for a in node.args])
        elif isinstance(node, Implies):
            new = Implies(memo[node.lhs], memo[node.rhs])
        elif isinstance(node, Iff):
            new = Iff(memo[node.lhs], memo[node.rhs])
        elif isinstance(node, Eq):
            new = Eq(memo[node.lhs], memo[node.rhs])
        elif isinstance(node, Lt):
            new = Lt(memo[node.lhs], memo[node.rhs])
        else:
            raise TypeError("unknown node kind: %r" % (node,))
        return new

    for node in postorder(root):
        memo[node] = rebuild(node)
    return memo[root]
