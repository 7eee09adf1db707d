"""Hash-consed abstract syntax for SUF (Separation logic with Uninterpreted Functions).

The paper (Seshia, Lahiri, Bryant; DAC 2003, Figure 1) defines two sorts:

* integer expressions -- symbolic constants, applications of uninterpreted
  function symbols, ``succ``/``pred`` (+-1), and ``ITE``;
* Boolean expressions -- ``true``/``false``, negation, conjunction,
  equalities and ``<`` between integer expressions, and applications of
  uninterpreted predicate symbols.

Formulas are represented as hash-consed DAGs: constructing a node that is
structurally identical to an existing one returns the *same* object.  This
matters because the paper measures formula size in DAG nodes, and because all
analyses (polarity, classes, domain bounds) are linear in the number of
*distinct* nodes, not in the tree size.

Design notes
------------
* ``succ``/``pred`` chains are normalised at construction into a single
  :class:`Offset` node ``base + k`` (so ``succ(pred(t)) == t`` holds for
  free, implementing the paper's first two rewrite rules).
* ``<=`` and the other derived comparisons are expressed with the two
  primitive atoms ``=`` and ``<`` plus offsets, e.g. ``x <= y`` becomes
  ``x < y + 1`` (we work over the integers).
* Node objects are immutable; ``==`` is structural but, thanks to interning,
  hits the identity fast path.  Every node carries a unique increasing
  ``uid`` usable for deterministic ordering.
* Constructors simplify: ``Ite(TRUE, a, b)`` returns ``a``, ``Eq(t, t)``
  returns ``TRUE``, and so on.  A collapsing ``__new__`` is therefore
  declared to return the *sort* (:class:`Term` / :class:`Formula`), not the
  class itself.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, List, Set, Tuple, Type, TypeVar, Union

__all__ = [
    "Node",
    "Term",
    "Formula",
    "Var",
    "Offset",
    "FuncApp",
    "Ite",
    "BoolConst",
    "BoolVar",
    "PredApp",
    "Not",
    "And",
    "Or",
    "Implies",
    "Iff",
    "Eq",
    "Lt",
    "TRUE",
    "FALSE",
    "clear_intern_cache",
    "intern_cache_size",
]

_INTERN: Dict[Tuple[Any, ...], "Node"] = {}
_UIDS = itertools.count(1)

_N = TypeVar("_N", bound="Node")


def clear_intern_cache() -> None:
    """Drop the global hash-consing table (used by tests to bound memory)."""
    _INTERN.clear()


def intern_cache_size() -> int:
    """Number of distinct nodes currently interned."""
    return len(_INTERN)


class Node:
    """Base class of all hash-consed AST nodes."""

    __slots__ = ("uid", "_hash", "_key")

    uid: int
    _hash: int
    _key: Tuple[Any, ...]

    def __new__(cls: Type[_N], *args: Any, **kwargs: Any) -> _N:
        # Concurrency audit (PR 5): the interning table is deliberately
        # unlocked.  Under the GIL each dict op is atomic; two threads
        # racing the same key at worst build duplicate nodes and the last
        # write wins — equality stays structural and the canonical layer
        # never trusts uid stability, so the race is benign.  Taking a
        # lock here would serialize every node construction.
        key = (cls,) + cls._intern_key(*args)
        cached = _INTERN.get(key)
        if cached is not None:
            return cached  # type: ignore[return-value]
        node = object.__new__(cls)
        node._key = key
        node._hash = hash(key)
        node.uid = next(_UIDS)
        cls._init_fields(node, *args)
        _INTERN[key] = node
        return node

    # Subclasses override these two hooks instead of __init__ so that the
    # interning logic stays in one place.  The blanket ``*args``/``**kwargs``
    # signatures mark them as per-class protocols whose real arity is fixed
    # by each subclass.
    @staticmethod
    def _intern_key(*args: Any, **kwargs: Any) -> Tuple[Any, ...]:
        raise NotImplementedError

    @staticmethod
    def _init_fields(*args: Any, **kwargs: Any) -> None:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Node) and self._key == other._key
        )

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return self._hash

    def children(self) -> Tuple["Node", ...]:
        """Immediate sub-nodes, in syntactic order."""
        return ()

    def __repr__(self) -> str:
        from .printer import to_sexpr

        return to_sexpr(self)


class Term(Node):
    """Integer-sorted expression."""

    __slots__ = ()


class Formula(Node):
    """Boolean-sorted expression."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


class Var(Term):
    """Integer symbolic constant (0-ary uninterpreted function symbol)."""

    __slots__ = ("name",)

    name: str

    @staticmethod
    def _intern_key(name: str) -> Tuple[Any, ...]:
        return (name,)

    @staticmethod
    def _init_fields(node: "Var", name: str) -> None:
        node.name = name


class Offset(Term):
    """``base + k`` for a nonzero integer ``k`` (collapsed succ/pred chain).

    Construct through :func:`repro.logic.builders.succ` / ``pred`` /
    ``offset`` which normalise ``k == 0`` to ``base`` and merge nested
    offsets; the raw constructor enforces those invariants.
    """

    __slots__ = ("base", "k")

    base: Term
    k: int

    def __new__(cls, base: Term, k: int) -> "Term":  # type: ignore  # collapses
        if not isinstance(base, Term):
            raise TypeError("Offset base must be a Term, got %r" % (base,))
        if isinstance(base, Offset):
            k = k + base.k
            base = base.base
        if k == 0:
            return base
        return Node.__new__(cls, base, k)

    @staticmethod
    def _intern_key(base: Term, k: int) -> Tuple[Any, ...]:
        return (base, k)

    @staticmethod
    def _init_fields(node: "Offset", base: Term, k: int) -> None:
        node.base = base
        node.k = k

    def children(self) -> Tuple[Node, ...]:
        return (self.base,)


class FuncApp(Term):
    """Application of an uninterpreted function symbol to integer terms."""

    __slots__ = ("symbol", "args")

    symbol: str
    args: Tuple[Term, ...]

    def __new__(cls, symbol: str, args: Iterable[Term]) -> "FuncApp":
        args = tuple(args)
        if not args:
            raise ValueError(
                "0-ary function applications must be Var nodes (symbolic "
                "constants), not FuncApp"
            )
        for a in args:
            if not isinstance(a, Term):
                raise TypeError("FuncApp argument %r is not a Term" % (a,))
        return Node.__new__(cls, symbol, args)

    @staticmethod
    def _intern_key(symbol: str, args: Tuple[Term, ...]) -> Tuple[Any, ...]:
        return (symbol, args)

    @staticmethod
    def _init_fields(node: "FuncApp", symbol: str, args: Tuple[Term, ...]) -> None:
        node.symbol = symbol
        node.args = args

    def children(self) -> Tuple[Node, ...]:
        return self.args


class Ite(Term):
    """``ITE(cond, then, els)`` over integer terms."""

    __slots__ = ("cond", "then", "els")

    cond: Formula
    then: Term
    els: Term

    def __new__(cls, cond: Formula, then: Term, els: Term) -> "Term":  # type: ignore  # collapses
        if not isinstance(cond, Formula):
            raise TypeError("Ite condition must be a Formula")
        if not (isinstance(then, Term) and isinstance(els, Term)):
            raise TypeError("Ite branches must be Terms")
        if cond is TRUE:
            return then
        if cond is FALSE:
            return els
        if then is els:
            return then
        return Node.__new__(cls, cond, then, els)

    @staticmethod
    def _intern_key(cond: Formula, then: Term, els: Term) -> Tuple[Any, ...]:
        return (cond, then, els)

    @staticmethod
    def _init_fields(node: "Ite", cond: Formula, then: Term, els: Term) -> None:
        node.cond = cond
        node.then = then
        node.els = els

    def children(self) -> Tuple[Node, ...]:
        return (self.cond, self.then, self.els)


def _strip_offset(term: Term) -> Tuple[Term, int]:
    """Split ``t`` into ``(base, k)`` such that ``t == base + k``."""
    if isinstance(term, Offset):
        return term.base, term.k
    return term, 0


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


class BoolConst(Formula):
    """``true`` or ``false``."""

    __slots__ = ("value",)

    value: bool

    @staticmethod
    def _intern_key(value: bool) -> Tuple[Any, ...]:
        return (bool(value),)

    @staticmethod
    def _init_fields(node: "BoolConst", value: bool) -> None:
        node.value = bool(value)


TRUE = BoolConst(True)
FALSE = BoolConst(False)


class BoolVar(Formula):
    """Symbolic Boolean constant (0-ary uninterpreted predicate symbol)."""

    __slots__ = ("name",)

    name: str

    @staticmethod
    def _intern_key(name: str) -> Tuple[Any, ...]:
        return (name,)

    @staticmethod
    def _init_fields(node: "BoolVar", name: str) -> None:
        node.name = name


class PredApp(Formula):
    """Application of an uninterpreted predicate symbol to integer terms."""

    __slots__ = ("symbol", "args")

    symbol: str
    args: Tuple[Term, ...]

    def __new__(cls, symbol: str, args: Iterable[Term]) -> "PredApp":
        args = tuple(args)
        if not args:
            raise ValueError(
                "0-ary predicate applications must be BoolVar nodes"
            )
        for a in args:
            if not isinstance(a, Term):
                raise TypeError("PredApp argument %r is not a Term" % (a,))
        return Node.__new__(cls, symbol, args)

    @staticmethod
    def _intern_key(symbol: str, args: Tuple[Term, ...]) -> Tuple[Any, ...]:
        return (symbol, args)

    @staticmethod
    def _init_fields(node: "PredApp", symbol: str, args: Tuple[Term, ...]) -> None:
        node.symbol = symbol
        node.args = args

    def children(self) -> Tuple[Node, ...]:
        return self.args


class Not(Formula):
    __slots__ = ("arg",)

    arg: Formula

    def __new__(cls, arg: Formula) -> "Formula":  # type: ignore  # collapses
        if not isinstance(arg, Formula):
            raise TypeError("Not argument must be a Formula")
        if arg is TRUE:
            return FALSE
        if arg is FALSE:
            return TRUE
        if isinstance(arg, Not):
            return arg.arg
        return Node.__new__(cls, arg)

    @staticmethod
    def _intern_key(arg: Formula) -> Tuple[Any, ...]:
        return (arg,)

    @staticmethod
    def _init_fields(node: "Not", arg: Formula) -> None:
        node.arg = arg

    def children(self) -> Tuple[Node, ...]:
        return (self.arg,)


def _flatten(cls: Type[Union["And", "Or"]], args: Iterable[Formula]) -> List[Formula]:
    flat: List[Formula] = []
    for a in args:
        if not isinstance(a, Formula):
            raise TypeError("%s argument %r is not a Formula" % (cls.__name__, a))
        if isinstance(a, cls):
            flat.extend(a.args)
        else:
            flat.append(a)
    return flat


class And(Formula):
    """N-ary conjunction; flattens nested conjunctions and constants."""

    __slots__ = ("args",)

    args: Tuple[Formula, ...]

    def __new__(cls, *args: Formula) -> "Formula":  # type: ignore  # collapses
        flat: List[Formula] = []
        seen: Set[int] = set()
        for a in _flatten(cls, args):
            if a is FALSE:
                return FALSE
            if a is not TRUE and id(a) not in seen:
                seen.add(id(a))
                flat.append(a)
        if not flat:
            return TRUE
        if len(flat) == 1:
            return flat[0]
        return Node.__new__(cls, tuple(flat))

    @staticmethod
    def _intern_key(args: Tuple[Formula, ...]) -> Tuple[Any, ...]:
        return (args,)

    @staticmethod
    def _init_fields(node: "And", args: Tuple[Formula, ...]) -> None:
        node.args = args

    def children(self) -> Tuple[Node, ...]:
        return self.args


class Or(Formula):
    """N-ary disjunction; flattens nested disjunctions and constants."""

    __slots__ = ("args",)

    args: Tuple[Formula, ...]

    def __new__(cls, *args: Formula) -> "Formula":  # type: ignore  # collapses
        flat: List[Formula] = []
        seen: Set[int] = set()
        for a in _flatten(cls, args):
            if a is TRUE:
                return TRUE
            if a is not FALSE and id(a) not in seen:
                seen.add(id(a))
                flat.append(a)
        if not flat:
            return FALSE
        if len(flat) == 1:
            return flat[0]
        return Node.__new__(cls, tuple(flat))

    @staticmethod
    def _intern_key(args: Tuple[Formula, ...]) -> Tuple[Any, ...]:
        return (args,)

    @staticmethod
    def _init_fields(node: "Or", args: Tuple[Formula, ...]) -> None:
        node.args = args

    def children(self) -> Tuple[Node, ...]:
        return self.args


class Implies(Formula):
    __slots__ = ("lhs", "rhs")

    lhs: Formula
    rhs: Formula

    def __new__(cls, lhs: Formula, rhs: Formula) -> "Formula":  # type: ignore  # collapses
        if not (isinstance(lhs, Formula) and isinstance(rhs, Formula)):
            raise TypeError("Implies arguments must be Formulas")
        if lhs is TRUE:
            return rhs
        if lhs is FALSE or rhs is TRUE:
            return TRUE
        if rhs is FALSE:
            return Not(lhs)
        return Node.__new__(cls, lhs, rhs)

    @staticmethod
    def _intern_key(lhs: Formula, rhs: Formula) -> Tuple[Any, ...]:
        return (lhs, rhs)

    @staticmethod
    def _init_fields(node: "Implies", lhs: Formula, rhs: Formula) -> None:
        node.lhs = lhs
        node.rhs = rhs

    def children(self) -> Tuple[Node, ...]:
        return (self.lhs, self.rhs)


class Iff(Formula):
    __slots__ = ("lhs", "rhs")

    lhs: Formula
    rhs: Formula

    def __new__(cls, lhs: Formula, rhs: Formula) -> "Formula":  # type: ignore  # collapses
        if not (isinstance(lhs, Formula) and isinstance(rhs, Formula)):
            raise TypeError("Iff arguments must be Formulas")
        if lhs is TRUE:
            return rhs
        if rhs is TRUE:
            return lhs
        if lhs is FALSE:
            return Not(rhs)
        if rhs is FALSE:
            return Not(lhs)
        if lhs is rhs:
            return TRUE
        return Node.__new__(cls, lhs, rhs)

    @staticmethod
    def _intern_key(lhs: Formula, rhs: Formula) -> Tuple[Any, ...]:
        return (lhs, rhs)

    @staticmethod
    def _init_fields(node: "Iff", lhs: Formula, rhs: Formula) -> None:
        node.lhs = lhs
        node.rhs = rhs

    def children(self) -> Tuple[Node, ...]:
        return (self.lhs, self.rhs)


class Eq(Formula):
    """Equality between two integer terms."""

    __slots__ = ("lhs", "rhs")

    lhs: Term
    rhs: Term

    def __new__(cls, lhs: Term, rhs: Term) -> "Formula":  # type: ignore  # collapses
        if not (isinstance(lhs, Term) and isinstance(rhs, Term)):
            raise TypeError("Eq arguments must be Terms")
        if lhs is rhs:
            return TRUE
        lb, lk = _strip_offset(lhs)
        rb, rk = _strip_offset(rhs)
        if lb is rb:
            # Same base term: x + a = x + b folds to a constant.
            return TRUE if lk == rk else FALSE
        # Canonical argument order keeps a = b and b = a as one DAG node.
        if lhs.uid > rhs.uid:
            lhs, rhs = rhs, lhs
        return Node.__new__(cls, lhs, rhs)

    @staticmethod
    def _intern_key(lhs: Term, rhs: Term) -> Tuple[Any, ...]:
        return (lhs, rhs)

    @staticmethod
    def _init_fields(node: "Eq", lhs: Term, rhs: Term) -> None:
        node.lhs = lhs
        node.rhs = rhs

    def children(self) -> Tuple[Node, ...]:
        return (self.lhs, self.rhs)


class Lt(Formula):
    """Strict ``<`` between two integer terms."""

    __slots__ = ("lhs", "rhs")

    lhs: Term
    rhs: Term

    def __new__(cls, lhs: Term, rhs: Term) -> "Formula":  # type: ignore  # collapses
        if not (isinstance(lhs, Term) and isinstance(rhs, Term)):
            raise TypeError("Lt arguments must be Terms")
        if lhs is rhs:
            return FALSE
        lb, lk = _strip_offset(lhs)
        rb, rk = _strip_offset(rhs)
        if lb is rb:
            # Same base term: x + a < x + b folds to a constant.
            return TRUE if lk < rk else FALSE
        return Node.__new__(cls, lhs, rhs)

    @staticmethod
    def _intern_key(lhs: Term, rhs: Term) -> Tuple[Any, ...]:
        return (lhs, rhs)

    @staticmethod
    def _init_fields(node: "Lt", lhs: Term, rhs: Term) -> None:
        node.lhs = lhs
        node.rhs = rhs

    def children(self) -> Tuple[Node, ...]:
        return (self.lhs, self.rhs)
