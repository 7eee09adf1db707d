"""Brute-force small-model oracle.

The slowest, simplest, most obviously-correct decision procedure in the
repository: enumerate every interpretation over a finite domain that the
small-model property guarantees is sufficient, and evaluate the formula
with the reference semantics.  Every other solver is tested against this
one.

Domain sufficiency argument (separation logic): let ``n`` be the number of
symbolic constants and ``s`` the largest ``|offset|`` in the formula once
its offsets are pushed to the leaves (through every ITE).  Any
integer model can be *compressed* — sort the values; a gap larger than
``2s + 1`` between adjacent values can be shrunk to exactly ``2s + 1``
without changing the truth of any atom ``x + k1 ⋈ y + k2`` (the offsets can
shift a comparison by at most ``2s``).  The compressed model fits in
``[0, (n - 1) · (2s + 1)]``, so enumerating that window is complete.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Tuple

from ..logic.semantics import Interpretation, evaluate
from ..logic.terms import Formula, FuncApp, PredApp
from ..logic.traversal import (
    collect_bool_vars,
    collect_vars,
    iter_dag,
    max_offset_magnitude,
)
from ..transform.func_elim import eliminate_applications
from ..transform.ground import push_offsets

__all__ = [
    "BruteForceLimitExceeded",
    "sep_domain_bound",
    "brute_force_valid_sep",
    "brute_force_countermodel_sep",
    "brute_force_valid",
]


class BruteForceLimitExceeded(Exception):
    """The enumeration space is too large for the configured limit."""


def sep_domain_bound(f_sep: Formula) -> int:
    """Sufficient domain size ``D`` (values ``0..D-1``) for ``f_sep``.

    ``s`` is read after pushing offsets to the leaves: offsets add up
    through an ITE, so ``(ite c (+ y -2) x) + -2`` compares ``y - 4``.
    """
    n = len(collect_vars(f_sep))
    s = max_offset_magnitude(push_offsets(f_sep))
    if n == 0:
        return 1
    return (n - 1) * (2 * s + 1) + 1


def _interpretations(
    f_sep: Formula, domain: int, limit: int
) -> Iterator[Interpretation]:
    int_vars = collect_vars(f_sep)
    bool_vars = collect_bool_vars(f_sep)
    total = (domain ** len(int_vars)) * (2 ** len(bool_vars))
    if total > limit:
        raise BruteForceLimitExceeded(
            "would enumerate %d interpretations (limit %d)" % (total, limit)
        )
    for ints in itertools.product(range(domain), repeat=len(int_vars)):
        base = {v.name: value for v, value in zip(int_vars, ints)}
        for bools in itertools.product(
            (False, True), repeat=len(bool_vars)
        ):
            yield Interpretation(
                vars=dict(base),
                bools={
                    v.name: value for v, value in zip(bool_vars, bools)
                },
            )


def brute_force_countermodel_sep(
    f_sep: Formula,
    domain: Optional[int] = None,
    limit: int = 2_000_000,
) -> Optional[Interpretation]:
    """A falsifying interpretation of a separation formula, or ``None``."""
    for node in iter_dag(f_sep):
        if isinstance(node, (FuncApp, PredApp)):
            raise ValueError(
                "brute_force_*_sep expects an application-free formula; "
                "use brute_force_valid for SUF"
            )
    if domain is None:
        domain = sep_domain_bound(f_sep)
    for interp in _interpretations(f_sep, domain, limit):
        if not evaluate(f_sep, interp):
            return interp
    return None


def brute_force_valid_sep(
    f_sep: Formula,
    domain: Optional[int] = None,
    limit: int = 2_000_000,
) -> bool:
    """Validity of an application-free separation formula by enumeration."""
    return brute_force_countermodel_sep(f_sep, domain, limit) is None


def brute_force_valid(
    formula: Formula,
    limit: int = 2_000_000,
) -> bool:
    """Validity of a SUF formula: eliminate applications, then enumerate.

    Function elimination is validity-preserving (Bryant et al.), so the
    result is the SUF validity of ``formula``.
    """
    f_sep, _ = eliminate_applications(formula)
    return brute_force_valid_sep(f_sep, limit=limit)
