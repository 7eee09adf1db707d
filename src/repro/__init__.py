"""repro — a hybrid SAT-based decision procedure for separation logic with
uninterpreted functions.

This library reproduces Seshia, Lahiri and Bryant, *"A Hybrid SAT-Based
Decision Procedure for Separation Logic with Uninterpreted Functions"*
(DAC 2003), end to end: the SUF logic front end, the eager small-domain
(SD), per-constraint (EIJ) and HYBRID propositional encodings, a CDCL SAT
solver, lazy (CVC-style) and case-splitting (SVC-style) baselines, the
paper's synthetic benchmark suite, and harnesses for every table and
figure in its evaluation.

Quickstart::

    from repro.logic import builders as b
    from repro import check_validity

    x, y = b.const("x"), b.const("y")
    f = b.func("f")
    formula = b.implies(b.eq(x, y), b.eq(f(x), f(y)))
    result = check_validity(formula, method="hybrid")
    assert result.valid

See ``examples/`` for runnable scenarios and ``repro.experiments`` for the
paper's evaluation.
"""

from .core.decision import check_validity
from .core.result import DecisionStats, SolveOutcome
from .core.status import Status
from .logic import builders
from .logic.parser import parse_formula, parse_term
from .logic.printer import pretty, to_sexpr

__version__ = "1.0.0"

__all__ = [
    "check_validity",
    "DecisionStats",
    "SolveOutcome",
    "Status",
    "builders",
    "parse_formula",
    "parse_term",
    "pretty",
    "to_sexpr",
    "__version__",
]
