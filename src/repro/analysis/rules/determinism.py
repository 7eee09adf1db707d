"""Determinism rules: the canonical-key / fingerprint contract.

The result cache and sessions key verdicts on sha256 digests of
canonical text (``logic/canonical.py``, ``service/cache.py``).
Those digests must be *process-stable*: equal across runs, interpreter
restarts, and machines.  Anything that leaks per-process state — object
identities, unordered ``set`` iteration, wall-clock time, randomness —
into a digest or serialized key silently partitions the cache (missed
hits at best, split-brain entries at worst).  ``RD204`` additionally
requires every persisted digest to fold in a version constant so schema
evolution invalidates old keys instead of misreading them.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Optional, Set

from ..core import (
    Finding,
    ModuleContext,
    Rule,
    register_rule,
    terminal_name,
)

__all__ = [
    "IdentityDependentOrder",
    "UnorderedIterationInDigest",
    "NondeterministicDigestInput",
    "UnversionedDigest",
]

_ORDER_CALLS = frozenset({"sorted", "min", "max"})

_HASH_CONSTRUCTORS = frozenset(
    {"sha256", "sha1", "sha512", "sha384", "sha3_256", "md5", "blake2b",
     "blake2s", "new"}
)

_NONDET_MODULES = {
    "time": "wall-clock time",
    "random": "unseeded module-level randomness",
    "secrets": "cryptographic randomness",
    "uuid": "random/host-derived identifiers",
}

_NONDET_CALLS = frozenset({"urandom", "getrandbits", "token_bytes",
                           "token_hex", "uuid1", "uuid4"})


def _is_set_expr(node: ast.AST) -> bool:
    """A value that is definitely an unordered ``set``/``frozenset``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = terminal_name(node.func)
        if name in ("set", "frozenset"):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # Set algebra on set expressions stays a set.
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _hash_functions(tree: ast.Module) -> Iterator[ast.AST]:
    """Functions that build a digest (call a hashlib constructor or
    ``.update``/``.hexdigest`` on one)."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for child in ast.walk(node):
            if isinstance(child, ast.Call):
                name = terminal_name(child.func)
                if name in _HASH_CONSTRUCTORS and _is_hashlib_call(child):
                    yield node
                    break
                if name in ("hexdigest", "digest"):
                    yield node
                    break


def _is_hashlib_call(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute):
        receiver = terminal_name(func.value)
        return receiver == "hashlib"
    # Bare sha256(...) after `from hashlib import sha256`.
    return isinstance(func, ast.Name) and func.id in _HASH_CONSTRUCTORS


@register_rule
class IdentityDependentOrder(Rule):
    """``id()`` used where ordering or rendered output matters.

    ``id()`` as a memo-dictionary key is fine (it never escapes the
    process); ``id()`` driving a *sort order* or appearing in formatted
    output makes the result depend on the allocator and poisons anything
    digested from it.
    """

    code = "RD201"
    name = "identity-dependent-order"
    description = (
        "id() used as a sort key or inside formatted/digested output"
    )

    def check(self, module: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                callee = terminal_name(node.func)
                if callee in _ORDER_CALLS or callee in ("sort",):
                    for keyword in node.keywords:
                        if keyword.arg == "key" and _id_in_value(
                            keyword.value
                        ):
                            yield self.finding(
                                module,
                                keyword.value,
                                "sort key depends on id(); the resulting "
                                "order changes run to run — sort on "
                                "content instead",
                            )
                    if callee in _ORDER_CALLS and any(
                        _id_in_value(arg) for arg in node.args
                    ):
                        yield self.finding(
                            module,
                            node,
                            "%s() over id() values orders by allocation "
                            "address; order by content instead" % callee,
                        )
            elif isinstance(node, ast.FormattedValue) and _id_in_value(
                node.value
            ):
                yield self.finding(
                    module,
                    node,
                    "id() rendered into an f-string leaks a per-process "
                    "address into output",
                )


def _id_in_value(node: ast.AST) -> bool:
    """Whether ``id(...)``'s *result* flows into this expression's value.

    ``memo[id(x)]`` is exempt: there ``id`` is only a lookup key and the
    value comes from the mapping's contents.
    """
    if isinstance(node, ast.Name):
        return node.id == "id"
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id == "id":
            return True
        return any(_id_in_value(arg) for arg in node.args) or any(
            _id_in_value(kw.value) for kw in node.keywords
        )
    if isinstance(node, ast.Subscript):
        return _id_in_value(node.value)
    return any(_id_in_value(child) for child in ast.iter_child_nodes(node))


@register_rule
class UnorderedIterationInDigest(Rule):
    """Unordered ``set`` iteration feeding order-sensitive output.

    Fires on (a) ``"sep".join(<set expr>)`` anywhere, and (b) any loop or
    comprehension over a bare ``set`` expression *inside a
    digest-building function* — there, iteration order flows into the
    key.  Wrap the iterable in ``sorted(...)``.
    """

    code = "RD202"
    name = "unordered-iteration-in-digest"
    description = (
        "iterating a set without sorted() where order reaches a join "
        "or a digest"
    )

    def check(self, module: ModuleContext) -> Iterable[Finding]:
        digest_funcs = list(_hash_functions(module.tree))
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                callee = terminal_name(node.func)
                if (
                    callee == "join"
                    and isinstance(node.func, ast.Attribute)
                    and node.args
                    and _is_set_expr(node.args[0])
                ):
                    yield self.finding(
                        module,
                        node,
                        "join() over a set concatenates in arbitrary "
                        "order; wrap the set in sorted()",
                    )
        for func in digest_funcs:
            for node in ast.walk(func):
                iterables: List[ast.AST] = []
                if isinstance(node, ast.For):
                    iterables.append(node.iter)
                elif isinstance(
                    node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)
                ):
                    iterables.extend(gen.iter for gen in node.generators)
                for iterable in iterables:
                    if _is_set_expr(iterable):
                        yield self.finding(
                            module,
                            iterable,
                            "iteration over a set inside digest-building "
                            "function %r; the visit order reaches the "
                            "key — use sorted()" % func.name,
                        )


@register_rule
class NondeterministicDigestInput(Rule):
    """Clock/randomness reachable inside a digest-building function.

    A function that constructs a hash must not also read ``time.*``,
    ``random.*``, ``os.urandom``, ``uuid.*`` or ``secrets.*`` — a key
    derived from any of them differs across runs, which defeats the
    cache and breaks the alpha-invariance guarantee.
    """

    code = "RD203"
    name = "nondeterministic-digest-input"
    description = (
        "time/random/urandom/uuid used inside a function that builds "
        "a digest"
    )

    def check(self, module: ModuleContext) -> Iterable[Finding]:
        for func in set(_hash_functions(module.tree)):
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                func_expr = node.func
                if isinstance(func_expr, ast.Attribute) and isinstance(
                    func_expr.value, ast.Name
                ):
                    receiver = func_expr.value.id
                    if receiver in _NONDET_MODULES:
                        yield self.finding(
                            module,
                            node,
                            "%s.%s() (%s) called inside digest-building "
                            "function %r; keys must be process-stable"
                            % (
                                receiver,
                                func_expr.attr,
                                _NONDET_MODULES[receiver],
                                func.name,
                            ),
                        )
                        continue
                callee = terminal_name(func_expr)
                if callee in _NONDET_CALLS:
                    yield self.finding(
                        module,
                        node,
                        "%s() called inside digest-building function "
                        "%r; keys must be process-stable"
                        % (callee, func.name),
                    )


@register_rule
class UnversionedDigest(Rule):
    """A persisted digest that folds in no version constant.

    Every function producing a *persisted* key (``.hexdigest()``) must
    reference a module-level ``*_VERSION`` / ``*SCHEMA*`` constant in
    its body, so bumping the constant invalidates old entries instead
    of letting a layout change misread them.
    """

    code = "RD204"
    name = "unversioned-digest"
    description = (
        "a .hexdigest() key computed without referencing a "
        "*_VERSION/*SCHEMA* constant"
    )

    def check(self, module: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            hexdigest_call = None
            for child in ast.walk(node):
                if (
                    isinstance(child, ast.Call)
                    and terminal_name(child.func) == "hexdigest"
                ):
                    hexdigest_call = child
                    break
            if hexdigest_call is None:
                continue
            if not self._references_version(node):
                yield self.finding(
                    module,
                    hexdigest_call,
                    "function %r persists a hex digest without folding "
                    "in a *_VERSION/*SCHEMA* constant; schema changes "
                    "would be misread instead of invalidated"
                    % node.name,
                )

    @staticmethod
    def _references_version(func: ast.AST) -> bool:
        for child in ast.walk(func):
            name: Optional[str] = None
            if isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.Attribute):
                name = child.attr
            if name is not None and (
                name.endswith("_VERSION") or "SCHEMA" in name.upper()
            ):
                return True
        return False
