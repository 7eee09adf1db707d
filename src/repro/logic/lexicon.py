"""Symbol-escaping rules shared by every concrete syntax.

Both concrete syntaxes the repo speaks — the native s-expression
language (:mod:`repro.logic.printer` / :mod:`repro.logic.parser`) and
SMT-LIB 2 (:mod:`repro.logic.smtlib`) — write awkward symbol spellings
as ``|quoted symbols|``.  The rules for *when* a name needs quoting
live here, in one place, so a printer can never disagree with its
reader about what reads back as the same symbol: a name is quoted iff
it is a reserved word of the syntax at hand, spells like a numeral or
a decimal, starts with a digit, or strays outside the simple-symbol
alphabet.

Each syntax supplies its own reserved-word set (``let`` is reserved in
SMT-LIB but a fine s-expression identifier; ``iff`` and ``succ`` are
the reverse); everything else is common.
"""

from __future__ import annotations

from typing import FrozenSet

__all__ = [
    "SIMPLE_SYMBOL_CHARS",
    "is_simple_symbol",
    "reads_as_numeral",
    "reads_as_decimal",
    "symbol_needs_quoting",
    "quote_symbol",
    "render_symbol",
]

#: The SMT-LIB 2.6 simple-symbol alphabet; the s-expression language
#: adopts the same one so a symbol quoted in either syntax is quoted in
#: both unless a reserved word is involved.
SIMPLE_SYMBOL_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    "~!@$%^&*_-+=<>.?/"
)


def reads_as_numeral(name: str) -> bool:
    """True when a bare ``name`` would lex as an integer literal.

    Signed spellings (``-3``, ``+0``) count: they survive printing
    ``Offset`` constants, so such names must be ``|quoted|``.
    """
    try:
        int(name)
    except ValueError:
        return False
    return True


def reads_as_decimal(name: str) -> bool:
    """True when a bare ``name`` would lex as a decimal literal.

    Signs and a leading point count (``.0``, ``-1.5``, ``+.5``): the
    SMT-LIB reader lexes them as decimals, so such names must be
    ``|quoted|``.
    """
    head = name.lstrip("+-")
    return "." in head and head.replace(".", "", 1).isdigit()


def is_simple_symbol(name: str) -> bool:
    """A nonempty name over the simple alphabet, not digit-led."""
    return (
        bool(name)
        and not name[0].isdigit()
        and all(ch in SIMPLE_SYMBOL_CHARS for ch in name)
    )


def symbol_needs_quoting(name: str, reserved: FrozenSet[str]) -> bool:
    """Must ``name`` be ``|quoted|`` under this syntax's reserved set?"""
    return (
        name in reserved
        or reads_as_numeral(name)
        or reads_as_decimal(name)
        or not is_simple_symbol(name)
    )


def quote_symbol(name: str) -> str:
    """``|name|``; raises when the name cannot appear inside bars."""
    if "|" in name or "\\" in name:
        raise ValueError(
            "symbol %r is not expressible inside |...| quoting" % name
        )
    return "|%s|" % name


def render_symbol(name: str, reserved: FrozenSet[str]) -> str:
    """The spelling a reader of this syntax reads back as ``name``."""
    if symbol_needs_quoting(name, reserved):
        return quote_symbol(name)
    return name
