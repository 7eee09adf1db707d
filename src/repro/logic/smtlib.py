"""SMT-LIB 2 front end for the SUF fragment (QF_UF / QF_IDL / QF_UFIDL).

The decision procedures in this package work on SUF — equality, ``<``,
uninterpreted functions, ±constant offsets, ITE.  That fragment is exactly
the intersection of the SMT-LIB logics ``QF_UF`` and ``QF_IDL`` (plus their
union ``QF_UFIDL``), so standard benchmark scripts in those logics can be
run directly:

* ``declare-fun`` / ``declare-const`` for ``Int``- and ``Bool``-sorted
  symbols (functions over ``Int``), ``define-fun`` macros (expanded at
  application sites, parameters shadow globals);
* ``assert`` with ``and or not => = distinct ite let < <= > >=`` plus
  ``(! t :named n)`` annotations; ``let`` bindings are parallel and
  shadow outer bindings and globals, per the standard;
* integer-offset arithmetic: ``(+ t k)``, ``(- t k)``, and difference
  atoms ``(op (- a b) k)``; bare integer literals are interpreted relative
  to a designated zero constant, the standard IDL reduction;
* ``set-info :status`` is captured as :attr:`SmtScript.expected_status`
  (the convention SMT-COMP benchmarks use), ``get-model`` sets
  :attr:`SmtScript.get_model_requested`;
* ``check-sat`` — note SMT-LIB asks for *satisfiability* of the asserted
  conjunction, so it maps to the validity check of its negation.

Anything outside the fragment (multiplication, non-constant sums, arrays,
quantifiers, non-``Int`` sorts, incremental ``push``/``pop``) raises
:class:`UnsupportedLogicError`; malformed input raises
:class:`SmtLibError`.  Both carry the 1-based ``line``/``column`` of the
offending token and prefix the message with it.

The printer (:func:`to_smtlib`, :func:`to_smtlib_script`) and the reader
share one set of symbol lexical rules — :data:`RESERVED_WORDS`,
:func:`reads_as_numeral`, :func:`needs_quoting` — so every formula the
printer emits reads back to the same formula (see the round-trip
property tests in ``tests/test_smtlib_read.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .terms import (
    And,
    Node,
    BoolVar,
    Eq,
    FALSE,
    Formula,
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
    Term,
    Var,
)
from . import builders as b
from . import lexicon

__all__ = [
    "SmtLibError",
    "UnsupportedLogicError",
    "SmtScript",
    "DefinedFun",
    "parse_smtlib",
    "check_sat_smtlib",
    "to_smtlib",
    "to_smtlib_script",
    "RESERVED_WORDS",
    "needs_quoting",
    "reads_as_numeral",
]

#: Designated origin for interpreting bare integer literals (IDL shift).
ZERO_NAME = "$smt_zero"

SUPPORTED_LOGICS = ("QF_UF", "QF_IDL", "QF_UFIDL")

#: The three values ``(set-info :status ...)`` may carry (SMT-LIB 2.6).
STATUS_VALUES = ("sat", "unsat", "unknown")


class SmtLibError(ValueError):
    """Raised on syntax errors or constructs outside the SUF fragment.

    ``line``/``column`` are 1-based positions of the offending token when
    known; the rendered message is prefixed with them.
    """

    def __init__(
        self,
        message: str,
        line: Optional[int] = None,
        column: Optional[int] = None,
    ) -> None:
        self.line = line
        self.column = column
        if line is not None and column is not None:
            message = "line %d, column %d: %s" % (line, column, message)
        super().__init__(message)


class UnsupportedLogicError(SmtLibError):
    """A well-formed construct that falls outside QF_UF/QF_IDL/QF_UFIDL.

    Distinguished from plain :class:`SmtLibError` so callers (the
    ``repro compete`` runner, the fuzzer's corpus loader) can separate
    "not our fragment" from "not SMT-LIB".
    """


# ---------------------------------------------------------------------------
# Shared symbol lexical rules (printer and reader agree on these)
# ---------------------------------------------------------------------------

#: Words a bare (unquoted) symbol must not spell: the SMT-LIB 2.6
#: reserved words, the command names, and every operator head or literal
#: the reader special-cases.  The printer ``|...|``-quotes them; the
#: reader rejects them as declaration names unless quoted.
RESERVED_WORDS = frozenset(
    [
        # SMT-LIB 2.6 reserved words
        "BINARY", "DECIMAL", "HEXADECIMAL", "NUMERAL", "STRING",
        "_", "!", "as", "let", "exists", "forall", "match", "par",
        # command names (reserved in scripts)
        "assert", "check-sat", "check-sat-assuming", "declare-const",
        "declare-datatype", "declare-datatypes", "declare-fun",
        "declare-sort", "define-fun", "define-fun-rec", "define-sort",
        "echo", "exit", "get-assertions", "get-assignment", "get-info",
        "get-model", "get-option", "get-proof", "get-unsat-assumptions",
        "get-unsat-core", "get-value", "pop", "push", "reset",
        "reset-assertions", "set-info", "set-logic", "set-option",
        # operator heads and literals the reader interprets
        "true", "false", "and", "or", "not", "=>", "xor", "=",
        "distinct", "ite", "<", "<=", ">", ">=", "+", "-", "*",
        # historical sexpr-syntax operators quoted for compatibility
        "succ", "pred",
    ]
)

#: Characters a simple (unquoted) SMT-LIB symbol may contain.
_SIMPLE_CHARS = lexicon.SIMPLE_SYMBOL_CHARS

#: The reader lexes ``5``, ``-0``, ``+3`` as integer literals (signed
#: spellings survive printing ``Offset`` constants), so such names must
#: be ``|quoted|``.
reads_as_numeral = lexicon.reads_as_numeral


def needs_quoting(name: str) -> bool:
    """True when ``name`` must be ``|...|``-quoted to read back as itself."""
    return lexicon.symbol_needs_quoting(name, RESERVED_WORDS)


def _smt_symbol(name: str) -> str:
    """Render a symbol, ``|...|``-quoting it when it needs it."""
    try:
        return lexicon.render_symbol(name, RESERVED_WORDS)
    except ValueError:
        raise SmtLibError("symbol %r is not expressible in SMT-LIB" % name)


# ---------------------------------------------------------------------------
# Lexer: text -> position-carrying tokens
# ---------------------------------------------------------------------------


class _Atom(str):
    """One atomic token, carrying its classification and position.

    ``kind`` is one of ``symbol``, ``quoted`` (a ``|...|`` symbol; always
    a name, never an integer literal, even when its spelling looks
    numeric, e.g. ``|0|``), ``numeral``, ``decimal``, ``string``, or
    ``keyword`` (``:named`` and friends).
    """

    kind: str
    line: int
    column: int

    def __new__(cls, text: str, kind: str, line: int, column: int) -> "_Atom":
        atom = super().__new__(cls, text)
        atom.kind = kind
        atom.line = line
        atom.column = column
        return atom


class _SList(list):
    """A parenthesized s-expression, carrying its ``(``'s position."""

    line: int = 0
    column: int = 0


SExpr = Union[_Atom, _SList]

_PUNCT = "()"


def _classify(text: str) -> str:
    if text.startswith(":"):
        return "keyword"
    if reads_as_numeral(text):
        return "numeral"
    if lexicon.reads_as_decimal(text):
        return "decimal"
    return "symbol"


def _tokenize(text: str) -> List[_Atom]:
    tokens: List[_Atom] = []
    line, col = 1, 1
    i, n = 0, len(text)

    def advance(ch: str) -> None:
        nonlocal line, col
        if ch == "\n":
            line += 1
            col = 1
        else:
            col += 1

    while i < n:
        ch = text[i]
        if ch == ";":
            while i < n and text[i] != "\n":
                advance(text[i])
                i += 1
            continue
        if ch.isspace():
            advance(ch)
            i += 1
            continue
        start_line, start_col = line, col
        if ch in _PUNCT:
            tokens.append(_Atom(ch, "punct", start_line, start_col))
            advance(ch)
            i += 1
            continue
        if ch == "|":  # quoted symbol; may span lines
            advance(ch)
            i += 1
            buf: List[str] = []
            while i < n and text[i] != "|":
                if text[i] == "\\":
                    raise SmtLibError(
                        "backslash is not allowed in a quoted symbol",
                        line, col,
                    )
                buf.append(text[i])
                advance(text[i])
                i += 1
            if i >= n:
                raise SmtLibError(
                    "unterminated quoted symbol", start_line, start_col
                )
            advance("|")
            i += 1
            tokens.append(
                _Atom("".join(buf), "quoted", start_line, start_col)
            )
            continue
        if ch == '"':  # string literal; "" escapes a quote
            advance(ch)
            i += 1
            buf = []
            while i < n:
                if text[i] == '"':
                    if i + 1 < n and text[i + 1] == '"':
                        buf.append('"')
                        advance('"')
                        advance('"')
                        i += 2
                        continue
                    break
                buf.append(text[i])
                advance(text[i])
                i += 1
            if i >= n:
                raise SmtLibError(
                    "unterminated string literal", start_line, start_col
                )
            advance('"')
            i += 1
            tokens.append(
                _Atom("".join(buf), "string", start_line, start_col)
            )
            continue
        buf = []
        while i < n and not (
            text[i].isspace() or text[i] in _PUNCT or text[i] in ';|"'
        ):
            buf.append(text[i])
            advance(text[i])
            i += 1
        word = "".join(buf)
        tokens.append(_Atom(word, _classify(word), start_line, start_col))
    return tokens


def _read_all(tokens: List[_Atom]) -> List[SExpr]:
    out: List[SExpr] = []
    pos = 0

    def read(pos: int) -> Tuple[SExpr, int]:
        tok = tokens[pos]
        if tok.kind == "punct" and tok == "(":
            items = _SList()
            items.line, items.column = tok.line, tok.column
            pos += 1
            while pos < len(tokens) and not (
                tokens[pos].kind == "punct"
                and tokens[pos] == ")"
            ):
                item, pos = read(pos)
                items.append(item)
            if pos >= len(tokens):
                raise SmtLibError(
                    "missing closing parenthesis for '(' here",
                    tok.line, tok.column,
                )
            return items, pos + 1
        if tok.kind == "punct":
            raise SmtLibError("unexpected ')'", tok.line, tok.column)
        return tok, pos + 1

    while pos < len(tokens):
        sexpr, pos = read(pos)
        out.append(sexpr)
    return out


def _pos(sx: object) -> Tuple[Optional[int], Optional[int]]:
    line = getattr(sx, "line", None)
    column = getattr(sx, "column", None)
    return line, column


def _err(message: str, at: object = None) -> SmtLibError:
    line, column = _pos(at)
    return SmtLibError(message, line, column)


def _unsupported(message: str, at: object = None) -> UnsupportedLogicError:
    line, column = _pos(at)
    return UnsupportedLogicError(message, line, column)


def _int_literal(sx: SExpr) -> Optional[int]:
    """The integer value of a literal s-expression, else ``None``.

    Covers bare (possibly sign-prefixed) numerals and the standard
    ``(- 5)`` negative-literal application.  ``|quoted|`` symbols are
    never literals even when their spelling is numeric.
    """
    if isinstance(sx, _Atom):
        if sx.kind == "numeral":
            return int(sx)
        return None
    if (
        isinstance(sx, list)
        and len(sx) == 2
        and isinstance(sx[0], _Atom)
        and sx[0].kind == "symbol"
        and str(sx[0]) == "-"
    ):
        inner = _int_literal(sx[1])
        if inner is not None:
            return -inner
    return None


# ---------------------------------------------------------------------------
# Script model
# ---------------------------------------------------------------------------


@dataclass
class DefinedFun:
    """One ``define-fun`` macro: expanded at every application site."""

    name: str
    params: List[Tuple[str, str]]  # (name, sort) pairs, sorts Int|Bool
    ret: str
    body: SExpr = field(default_factory=lambda: _Atom("true", "symbol", 0, 0))


@dataclass
class SmtScript:
    """A parsed SMT-LIB script over the SUF fragment."""

    logic: Optional[str] = None
    assertions: List[Formula] = field(default_factory=list)
    int_consts: Dict[str, Var] = field(default_factory=dict)
    bool_consts: Dict[str, BoolVar] = field(default_factory=dict)
    func_sorts: Dict[str, Tuple[int, str]] = field(default_factory=dict)
    defined_funs: Dict[str, DefinedFun] = field(default_factory=dict)
    named: Dict[str, Node] = field(default_factory=dict)
    expected_status: Optional[str] = None
    check_sat_requested: bool = False
    get_model_requested: bool = False
    uses_zero: bool = False

    def conjunction(self) -> Formula:
        return And(*self.assertions)

    def check_sat(self, method: str = "hybrid", **kw: Any) -> str:
        """SMT-LIB semantics: satisfiability of the asserted conjunction.

        Returns ``"sat"``, ``"unsat"`` or ``"unknown"``.
        """
        from ..core.decision import check_validity

        result = check_validity(
            Not(self.conjunction()), method=method, **kw
        )
        if result.valid is True:
            return "unsat"
        if result.valid is False:
            return "sat"
        return "unknown"


# ---------------------------------------------------------------------------
# Parser: s-expressions -> SmtScript
# ---------------------------------------------------------------------------

#: Recognizable heads that are definitely SMT-LIB but definitely not SUF.
_OUT_OF_FRAGMENT_OPS = frozenset(
    [
        "*", "div", "mod", "abs", "rem", "divisible", "to_real", "to_int",
        "select", "store", "concat", "bvadd", "bvand", "str.++",
        "forall", "exists", "match", "_", "as",
    ]
)

#: Commands acknowledged and ignored (they don't affect the assertion set).
_IGNORED_COMMANDS = frozenset(
    [
        "set-option", "get-info", "get-option", "get-value",
        "get-assertions", "get-assignment", "get-proof",
        "get-unsat-core", "get-unsat-assumptions", "echo", "exit",
        "reset-assertions",
    ]
)

_MAX_EXPANSION_DEPTH = 64


class _Parser:
    def __init__(self) -> None:
        self.script = SmtScript()
        self._expansion_depth = 0

    # -- declarations -------------------------------------------------------

    def _symbol_name(self, sx: SExpr, what: str) -> str:
        """A declaration-position symbol, validating reservation rules."""
        if not isinstance(sx, _Atom) or sx.kind not in ("symbol", "quoted"):
            raise _err("%s must be a symbol, got %r" % (what, _spell(sx)), sx)
        if sx.kind == "symbol" and str(sx) in RESERVED_WORDS:
            raise _err(
                "%s %r is a reserved word (write |%s| to use it as a "
                "name)" % (what, str(sx), str(sx)),
                sx,
            )
        return str(sx)

    def declare(self, sx: SExpr, name: str, arg_sorts: List[SExpr],
                ret: SExpr) -> None:
        script = self.script
        if (
            name in script.int_consts
            or name in script.bool_consts
            or name in script.func_sorts
            or name in script.defined_funs
        ):
            raise _err("symbol %r declared twice" % name, sx)
        for sort in arg_sorts:
            if not (isinstance(sort, _Atom) and str(sort) == "Int"):
                raise _unsupported(
                    "argument sort %s of %r is outside the fragment "
                    "(only Int-sorted arguments are supported)"
                    % (_spell(sort), name),
                    sort,
                )
        if not (isinstance(ret, _Atom) and str(ret) in ("Int", "Bool")):
            raise _unsupported(
                "return sort %s is outside the fragment (Int or Bool)"
                % _spell(ret),
                ret,
            )
        ret_name = str(ret)
        if not arg_sorts:
            if ret_name == "Int":
                script.int_consts[name] = Var(name)
            else:
                script.bool_consts[name] = BoolVar(name)
        else:
            script.func_sorts[name] = (len(arg_sorts), ret_name)

    # -- terms ---------------------------------------------------------------

    def zero(self) -> Var:
        self.script.uses_zero = True
        return Var(ZERO_NAME)

    def term(self, sx: SExpr, env: Dict[str, object]) -> Term:
        value = self.value(sx, env)
        if not isinstance(value, Term):
            raise _err(
                "expected an Int term, got a Bool: %s" % _spell(sx), sx
            )
        return value

    def formula(self, sx: SExpr, env: Dict[str, object]) -> Formula:
        value = self.value(sx, env)
        if not isinstance(value, Formula):
            raise _err(
                "expected a Bool term, got an Int: %s" % _spell(sx), sx
            )
        return value

    def value(self, sx: SExpr, env: Dict[str, object]) -> Any:
        script = self.script
        lit = _int_literal(sx)
        if lit is not None:
            return Offset(self.zero(), lit) if lit else self.zero()
        if isinstance(sx, _Atom):
            if sx.kind == "decimal":
                raise _unsupported(
                    "decimal literal %s is outside the fragment (Int "
                    "arithmetic only)" % str(sx),
                    sx,
                )
            if sx.kind in ("string", "keyword"):
                raise _err(
                    "unexpected %s %r in a term position"
                    % (sx.kind, str(sx)),
                    sx,
                )
            name = str(sx)
            if name in env:
                return env[name]
            if sx.kind == "symbol":
                if name == "true":
                    return TRUE
                if name == "false":
                    return FALSE
            if name in script.int_consts:
                return script.int_consts[name]
            if name in script.bool_consts:
                return script.bool_consts[name]
            if name in script.defined_funs:
                return self._expand(sx, script.defined_funs[name], [], env)
            if name in script.func_sorts:
                raise _err(
                    "%r is a %d-ary function symbol used without "
                    "arguments" % (name, script.func_sorts[name][0]),
                    sx,
                )
            raise _err("undeclared symbol %r" % name, sx)
        if not sx:
            raise _err("empty application ()", sx)
        head = sx[0]
        if not isinstance(head, _Atom) or head.kind not in (
            "symbol", "quoted"
        ):
            raise _err(
                "application head must be a symbol, got %s" % _spell(head),
                head,
            )
        name = str(head)
        args = list(sx[1:])

        if head.kind == "symbol":
            if name == "!":
                return self._annotation(sx, env)
            if name == "let":
                return self._let(sx, env)
            if name in ("and", "or"):
                parts = [self.formula(a, env) for a in args]
                return And(*parts) if name == "and" else Or(*parts)
            if name == "not":
                self._arity(sx, 1)
                return Not(self.formula(args[0], env))
            if name == "=>":
                if len(args) < 2:
                    raise _err("=> needs at least two arguments", sx)
                # Right-associative chain.
                result = self.formula(args[-1], env)
                for a in reversed(args[:-1]):
                    result = Implies(self.formula(a, env), result)
                return result
            if name == "xor":
                self._arity(sx, 2)
                return Not(
                    Iff(
                        self.formula(args[0], env),
                        self.formula(args[1], env),
                    )
                )
            if name == "=":
                values = [self.value(a, env) for a in args]
                return self._chain_equal(sx, values)
            if name == "distinct":
                terms = [self.term(a, env) for a in args]
                return b.distinct(terms)
            if name in ("<", "<=", ">", ">="):
                if len(args) != 2:
                    raise _err("%s expects two arguments" % name, sx)
                lhs = self._difference_operand(args[0], env)
                rhs = self._difference_operand(args[1], env)
                return self._compare(name, lhs, rhs)
            if name == "ite":
                self._arity(sx, 3)
                cond = self.formula(args[0], env)
                then_v = self.value(args[1], env)
                else_v = self.value(args[2], env)
                if isinstance(then_v, Term) and isinstance(else_v, Term):
                    return Ite(cond, then_v, else_v)
                if isinstance(then_v, Formula) and isinstance(
                    else_v, Formula
                ):
                    return Or(And(cond, then_v), And(Not(cond), else_v))
                raise _err("ite branches must share a sort", sx)
            if name == "+":
                return self._sum(sx, args, env)
            if name == "-":
                return self._minus(sx, args, env)
        if name in script.func_sorts:
            arity, ret = script.func_sorts[name]
            if len(args) != arity:
                raise _err(
                    "%r expects %d argument(s), got %d"
                    % (name, arity, len(args)),
                    sx,
                )
            terms = [self.term(a, env) for a in args]
            if ret == "Int":
                return FuncApp(name, terms)
            return PredApp(name, terms)
        if name in script.defined_funs:
            return self._expand(sx, script.defined_funs[name], args, env)
        if name in _OUT_OF_FRAGMENT_OPS:
            raise _unsupported(
                "operator %r is outside the SUF fragment "
                "(QF_UF / QF_IDL / QF_UFIDL subset)" % name,
                head,
            )
        raise _err("undeclared symbol or operator %r" % name, head)

    def _let(self, sx: _SList, env: Dict[str, object]) -> Any:
        args = sx[1:]
        if len(args) != 2 or not isinstance(args[0], list):
            raise _err(
                "malformed let: expected (let ((name value)...) body)", sx
            )
        # SMT-LIB let is parallel: every binding value is evaluated in
        # the *outer* environment; the body sees the new bindings, which
        # shadow outer bindings and global declarations.
        new_env = dict(env)
        for binding in args[0]:
            if (
                not isinstance(binding, list)
                or len(binding) != 2
                or not isinstance(binding[0], _Atom)
                or binding[0].kind not in ("symbol", "quoted")
            ):
                raise _err(
                    "malformed let binding: expected (name value)",
                    binding if isinstance(binding, (list, _Atom)) else sx,
                )
            new_env[str(binding[0])] = self.value(binding[1], env)
        return self.value(args[1], new_env)

    def _annotation(self, sx: _SList, env: Dict[str, object]) -> Any:
        """``(! expr attr...)``: the value of ``expr``; record ``:named``."""
        if len(sx) < 3:
            raise _err(
                "malformed annotation: expected (! term :attr ...)", sx
            )
        value = self.value(sx[1], env)
        i = 2
        while i < len(sx):
            attr = sx[i]
            if not isinstance(attr, _Atom) or attr.kind != "keyword":
                raise _err(
                    "annotation attribute must be a :keyword, got %s"
                    % _spell(attr),
                    attr if isinstance(attr, (list, _Atom)) else sx,
                )
            has_value = (
                i + 1 < len(sx)
                and not (
                    isinstance(sx[i + 1], _Atom)
                    and sx[i + 1].kind == "keyword"
                )
            )
            if str(attr) == ":named":
                if not has_value or not isinstance(sx[i + 1], _Atom):
                    raise _err(":named needs a symbol argument", attr)
                label = self._symbol_name(sx[i + 1], ":named label")
                if label in self.script.named:
                    raise _err(
                        ":named label %r is already in use" % label, sx[i + 1]
                    )
                self.script.named[label] = value
            i += 2 if has_value else 1
        return value

    def _expand(
        self,
        sx: SExpr,
        defined: DefinedFun,
        args: List[SExpr],
        env: Dict[str, object],
    ) -> Any:
        """Apply a ``define-fun`` macro: evaluate its body with the
        parameters bound to the (caller-environment) argument values.

        The body sees *only* the parameters plus global declarations —
        not the caller's ``let`` bindings — which is exactly the
        standard's closed-form macro semantics."""
        if len(args) != len(defined.params):
            raise _err(
                "%r expects %d argument(s), got %d"
                % (defined.name, len(defined.params), len(args)),
                sx,
            )
        if self._expansion_depth >= _MAX_EXPANSION_DEPTH:
            raise _err(
                "define-fun expansion exceeds depth %d (recursive "
                "definition?)" % _MAX_EXPANSION_DEPTH,
                sx,
            )
        body_env: Dict[str, object] = {}
        for (param, sort), arg in zip(defined.params, args):
            value = self.value(arg, env)
            if sort == "Int" and not isinstance(value, Term):
                raise _err(
                    "argument for Int parameter %r of %r is a Bool"
                    % (param, defined.name),
                    arg if isinstance(arg, (list, _Atom)) else sx,
                )
            if sort == "Bool" and not isinstance(value, Formula):
                raise _err(
                    "argument for Bool parameter %r of %r is an Int"
                    % (param, defined.name),
                    arg if isinstance(arg, (list, _Atom)) else sx,
                )
            body_env[param] = value
        self._expansion_depth += 1
        try:
            result = self.value(defined.body, body_env)
        finally:
            self._expansion_depth -= 1
        want = Term if defined.ret == "Int" else Formula
        if not isinstance(result, want):
            raise _err(
                "body of %r does not match its declared %s return sort"
                % (defined.name, defined.ret),
                sx,
            )
        return result

    def _arity(self, sx: _SList, n: int) -> None:
        if len(sx) - 1 != n:
            raise _err(
                "%s expects %d argument(s), got %d"
                % (str(sx[0]), n, len(sx) - 1),
                sx,
            )

    def _chain_equal(self, sx: SExpr, values: Sequence[Any]) -> Formula:
        if len(values) < 2:
            raise _err("= needs at least two arguments", sx)
        parts: List[Formula] = []
        for lhs, rhs in zip(values, values[1:]):
            if isinstance(lhs, Term) and isinstance(rhs, Term):
                parts.append(Eq(lhs, rhs))
            elif isinstance(lhs, Formula) and isinstance(rhs, Formula):
                parts.append(Iff(lhs, rhs))
            else:
                raise _err("= arguments must share a sort", sx)
        return And(*parts)

    def _compare(self, op: str, lhs: Term, rhs: Term) -> Formula:
        if op == "<":
            return Lt(lhs, rhs)
        if op == "<=":
            return b.le(lhs, rhs)
        if op == ">":
            return Lt(rhs, lhs)
        return b.ge(lhs, rhs)

    def _sum(
        self, sx: SExpr, args: List[SExpr], env: Dict[str, object]
    ) -> Term:
        """``(+ ...)`` where at most one operand is a non-literal term."""
        total = 0
        base: Optional[Term] = None
        for a in args:
            lit = _int_literal(a)
            if lit is not None:
                total += lit
                continue
            value = self.term(a, env)
            if base is not None:
                raise _unsupported(
                    "sums of two non-constant terms are outside the "
                    "difference-logic fragment",
                    sx,
                )
            base = value
        if base is None:
            return Offset(self.zero(), total) if total else self.zero()
        return Offset(base, total)

    def _minus(
        self, sx: SExpr, args: List[SExpr], env: Dict[str, object]
    ) -> Term:
        if len(args) == 1:
            lit = _int_literal(args[0])
            if lit is not None:
                return Offset(self.zero(), -lit) if lit else self.zero()
            raise _unsupported(
                "unary minus of a non-constant term is outside the "
                "fragment",
                sx,
            )
        if len(args) != 2:
            raise _err("- expects one or two arguments", sx)
        lit = _int_literal(args[1])
        if lit is not None:
            return Offset(self.term(args[0], env), -lit)
        # (- a b): allowed only where a difference is comparable, which
        # _difference_operand handles; as a bare term it is out of scope.
        raise _unsupported(
            "(- a b) with non-constant b is only supported directly under "
            "a comparison",
            sx,
        )

    def _difference_operand(
        self, sx: SExpr, env: Dict[str, object]
    ) -> Term:
        """Operand of a comparison; rejects general ``(- a b)`` with a
        rewrite hint (difference atoms must keep one side constant)."""
        if (
            isinstance(sx, list)
            and len(sx) == 3
            and isinstance(sx[0], _Atom)
            and sx[0].kind == "symbol"
            and str(sx[0]) == "-"
            and _int_literal(sx[2]) is None
            and _int_literal(sx[1]) is None
        ):
            raise _unsupported(
                "general term differences are outside the fragment; "
                "rewrite (op (- a b) k) as (op a (+ b k))",
                sx,
            )
        return self.term(sx, env)

    # -- commands ------------------------------------------------------------

    def command(self, sx: SExpr) -> None:
        script = self.script
        if (
            not isinstance(sx, list)
            or not sx
            or not isinstance(sx[0], _Atom)
            or sx[0].kind != "symbol"
        ):
            raise _err("malformed command: %s" % _spell(sx), sx)
        head = str(sx[0])
        if head == "set-logic":
            if len(sx) != 2 or not isinstance(sx[1], _Atom):
                raise _err("set-logic expects one logic name", sx)
            if str(sx[1]) not in SUPPORTED_LOGICS:
                raise _unsupported(
                    "unsupported logic %r (supported: %s)"
                    % (str(sx[1]), ", ".join(SUPPORTED_LOGICS)),
                    sx[1],
                )
            script.logic = str(sx[1])
        elif head == "set-info":
            self._set_info(sx)
        elif head in _IGNORED_COMMANDS:
            return
        elif head == "get-model":
            script.get_model_requested = True
        elif head == "declare-fun":
            if len(sx) != 4 or not isinstance(sx[2], list):
                raise _err(
                    "malformed declare-fun: expected "
                    "(declare-fun name (sorts...) sort)",
                    sx,
                )
            name = self._symbol_name(sx[1], "declared name")
            self.declare(sx, name, list(sx[2]), sx[3])
        elif head == "declare-const":
            if len(sx) != 3:
                raise _err(
                    "malformed declare-const: expected "
                    "(declare-const name sort)",
                    sx,
                )
            name = self._symbol_name(sx[1], "declared name")
            self.declare(sx, name, [], sx[2])
        elif head == "define-fun":
            self._define_fun(sx)
        elif head == "assert":
            if len(sx) != 2:
                raise _err("assert expects one argument", sx)
            script.assertions.append(self.formula(sx[1], {}))
        elif head == "check-sat":
            script.check_sat_requested = True
        elif head in ("push", "pop", "check-sat-assuming", "reset"):
            raise _unsupported(
                "incremental command %r is not supported by the batch "
                "reader (use the engine session API instead)" % head,
                sx,
            )
        elif head in ("declare-sort", "define-sort", "declare-datatype",
                      "declare-datatypes", "define-fun-rec"):
            raise _unsupported(
                "command %r is outside the fragment (Int/Bool sorts "
                "only)" % head,
                sx,
            )
        else:
            raise _err("unsupported command %r" % head, sx)

    def _set_info(self, sx: _SList) -> None:
        if len(sx) < 2 or not isinstance(sx[1], _Atom) or (
            sx[1].kind != "keyword"
        ):
            raise _err(
                "malformed set-info: expected (set-info :attr value)", sx
            )
        if str(sx[1]) == ":status":
            if len(sx) != 3 or not isinstance(sx[2], _Atom):
                raise _err(":status needs one value", sx)
            status = str(sx[2])
            if status not in STATUS_VALUES:
                raise _err(
                    "invalid :status %r (expected sat, unsat or unknown)"
                    % status,
                    sx[2],
                )
            self.script.expected_status = status

    def _define_fun(self, sx: _SList) -> None:
        if len(sx) != 5 or not isinstance(sx[2], list):
            raise _err(
                "malformed define-fun: expected "
                "(define-fun name ((param sort)...) sort body)",
                sx,
            )
        name = self._symbol_name(sx[1], "defined name")
        script = self.script
        if (
            name in script.int_consts
            or name in script.bool_consts
            or name in script.func_sorts
            or name in script.defined_funs
        ):
            raise _err("symbol %r declared twice" % name, sx)
        params: List[Tuple[str, str]] = []
        seen = set()
        for binding in sx[2]:
            if (
                not isinstance(binding, list)
                or len(binding) != 2
                or not isinstance(binding[0], _Atom)
            ):
                raise _err(
                    "malformed define-fun parameter: expected (name sort)",
                    binding if isinstance(binding, (list, _Atom)) else sx,
                )
            pname = self._symbol_name(binding[0], "parameter name")
            if pname in seen:
                raise _err(
                    "duplicate parameter %r" % pname, binding[0]
                )
            seen.add(pname)
            if not (
                isinstance(binding[1], _Atom)
                and str(binding[1]) in ("Int", "Bool")
            ):
                raise _unsupported(
                    "parameter sort %s is outside the fragment "
                    "(Int or Bool)" % _spell(binding[1]),
                    binding[1],
                )
            params.append((pname, str(binding[1])))
        if not (
            isinstance(sx[3], _Atom) and str(sx[3]) in ("Int", "Bool")
        ):
            raise _unsupported(
                "return sort %s is outside the fragment (Int or Bool)"
                % _spell(sx[3]),
                sx[3],
            )
        defined = DefinedFun(
            name=name, params=params, ret=str(sx[3]), body=sx[4]
        )
        # Trial-expand once with placeholder parameters so malformed or
        # out-of-fragment bodies fail here, at the definition site, even
        # when the macro is never applied.
        placeholders: Dict[str, object] = {
            pname: (Var(".%s" % pname) if sort == "Int"
                    else BoolVar(".%s" % pname))
            for pname, sort in params
        }
        self._expansion_depth += 1
        try:
            trial = self.value(defined.body, placeholders)
        finally:
            self._expansion_depth -= 1
        want = Term if defined.ret == "Int" else Formula
        if not isinstance(trial, want):
            raise _err(
                "body of %r does not match its declared %s return sort"
                % (name, defined.ret),
                sx[4] if isinstance(sx[4], (list, _Atom)) else sx,
            )
        script.defined_funs[name] = defined


def _spell(sx: object) -> str:
    """A short human-readable rendering of an s-expression for errors."""
    if isinstance(sx, _Atom):
        if sx.kind == "quoted":
            return "|%s|" % str(sx)
        if sx.kind == "string":
            return '"%s"' % str(sx)
        return str(sx)
    if isinstance(sx, list):
        inner = " ".join(_spell(item) for item in sx[:4])
        if len(sx) > 4:
            inner += " ..."
        return "(%s)" % inner
    return repr(sx)


def parse_smtlib(text: str) -> SmtScript:
    """Parse an SMT-LIB script into an :class:`SmtScript`."""
    parser = _Parser()
    for sexpr in _read_all(_tokenize(text)):
        parser.command(sexpr)
    return parser.script


def check_sat_smtlib(text: str, method: str = "hybrid", **kw: Any) -> str:
    """One-shot: parse a script and answer its ``check-sat``."""
    return parse_smtlib(text).check_sat(method=method, **kw)


# ---------------------------------------------------------------------------
# Printing (inverse direction: SUF formula -> SMT-LIB 2 script)
# ---------------------------------------------------------------------------


def to_smtlib(root: Node) -> str:
    """Render a term or formula as an SMT-LIB 2 expression."""
    from .traversal import postorder

    memo: Dict[object, str] = {}
    for node in postorder(root):
        memo[node] = _render_smt(node, memo)
    return memo[root]


def _render_smt(node: Node, memo: Dict[object, str]) -> str:
    if node is TRUE:
        return "true"
    if node is FALSE:
        return "false"
    if isinstance(node, (Var, BoolVar)):
        return _smt_symbol(node.name)
    if isinstance(node, Offset):
        return "(+ %s %d)" % (memo[node.base], node.k)
    if isinstance(node, (FuncApp, PredApp)):
        return "(%s %s)" % (
            _smt_symbol(node.symbol),
            " ".join(memo[a] for a in node.args),
        )
    if isinstance(node, Ite):
        return "(ite %s %s %s)" % (
            memo[node.cond],
            memo[node.then],
            memo[node.els],
        )
    if isinstance(node, Not):
        return "(not %s)" % memo[node.arg]
    if isinstance(node, And):
        return "(and %s)" % " ".join(memo[a] for a in node.args)
    if isinstance(node, Or):
        return "(or %s)" % " ".join(memo[a] for a in node.args)
    if isinstance(node, Implies):
        return "(=> %s %s)" % (memo[node.lhs], memo[node.rhs])
    if isinstance(node, (Iff, Eq)):
        return "(= %s %s)" % (memo[node.lhs], memo[node.rhs])
    if isinstance(node, Lt):
        return "(< %s %s)" % (memo[node.lhs], memo[node.rhs])
    raise SmtLibError("cannot render %r as SMT-LIB" % (type(node),))


def to_smtlib_script(
    formula: Formula,
    negate: bool = True,
    logic: Optional[str] = None,
    comments: Optional[List[str]] = None,
    status: Optional[str] = None,
) -> str:
    """A complete SMT-LIB 2 script for ``formula``.

    With ``negate=True`` (the default) the script asserts the *negation*,
    so ``check-sat`` answers ``unsat`` exactly when ``formula`` is valid —
    the convention the ``repro check`` CLI and external solvers share.
    ``status`` (``"sat"``/``"unsat"``/``"unknown"``) emits the standard
    ``(set-info :status ...)`` annotation that benchmark corpora carry
    and ``repro compete`` scores against.  Round-trips through
    :func:`parse_smtlib`.
    """
    from .traversal import collect_bool_vars, collect_vars, iter_dag

    func_arities: Dict[str, int] = {}
    pred_arities: Dict[str, int] = {}
    has_offsets = False
    has_lt = False
    for node in iter_dag(formula):
        if isinstance(node, FuncApp):
            func_arities[node.symbol] = len(node.args)
        elif isinstance(node, PredApp):
            pred_arities[node.symbol] = len(node.args)
        elif isinstance(node, Offset):
            has_offsets = True
        elif isinstance(node, Lt):
            has_lt = True

    if logic is None:
        has_apps = bool(func_arities or pred_arities)
        if has_offsets or has_lt:
            logic = "QF_UFIDL" if has_apps else "QF_IDL"
        else:
            logic = "QF_UF"

    if status is not None and status not in STATUS_VALUES:
        raise SmtLibError(
            "invalid :status %r (expected sat, unsat or unknown)" % status
        )

    lines: List[str] = []
    for comment in comments or ():
        for part in comment.splitlines():
            lines.append("; %s" % part)
    lines.append("(set-logic %s)" % logic)
    if status is not None:
        lines.append("(set-info :status %s)" % status)
    for var in collect_vars(formula):
        lines.append("(declare-fun %s () Int)" % _smt_symbol(var.name))
    for bvar in collect_bool_vars(formula):
        lines.append("(declare-fun %s () Bool)" % _smt_symbol(bvar.name))
    for symbol in sorted(func_arities):
        lines.append(
            "(declare-fun %s (%s) Int)"
            % (_smt_symbol(symbol), " ".join(["Int"] * func_arities[symbol]))
        )
    for symbol in sorted(pred_arities):
        lines.append(
            "(declare-fun %s (%s) Bool)"
            % (_smt_symbol(symbol), " ".join(["Int"] * pred_arities[symbol]))
        )
    body = Not(formula) if negate else formula
    lines.append("(assert %s)" % to_smtlib(body))
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"
