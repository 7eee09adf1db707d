"""The top-level eager decision procedure for SUF validity.

Pipeline (paper §2.1):

1. eliminate uninterpreted function/predicate applications (nested ITEs,
   positive-equality bookkeeping) — ``F_suf -> F_sep``;
2. encode ``F_sep`` propositionally with the selected method
   (``"sd"``, ``"eij"`` or ``"hybrid"``) — ``F_sep -> F_bool``;
3. Tseitin-flatten ``F_trans ∧ ¬F_bvar`` and run the CDCL solver;
4. UNSAT means the input is **valid**; a model is decoded back into an
   integer counterexample (bit-vectors read off directly, difference
   bounds completed by Bellman–Ford, maximal-diversity values for ``V_p``)
   and lifted to function tables.

:func:`check_validity` is the main public entry point of the library;
it returns a :class:`~repro.core.result.SolveOutcome`.  The pipeline
itself lives in :mod:`repro.engine.stages` (each stage individually
timed and counted); this module keeps the entry point plus the
CNF-model and decoding helpers shared by the eager pipeline, the lazy
and SVC baselines, and incremental sessions.
"""

from __future__ import annotations

from typing import Any, Dict

from ..encodings.bitvector import bv_value
from ..encodings.hybrid import Encoding
from ..logic.semantics import Interpretation, evaluate_term
from ..logic.terms import BoolVar, Formula, Not
from ..logic.traversal import (
    collect_bool_vars,
    collect_vars,
    max_offset_magnitude,
)
from ..sat.cnf import Cnf
from ..separation.unionfind import DisjointSet
from ..theory.difference import check_bounds
from ..transform.func_elim import FuncElimInfo
from .result import SolveOutcome

__all__ = [
    "check_validity",
    "boolvar_model",
    "dimacs_literal",
    "decode_countermodel",
    "lift_countermodel",
]


def check_validity(
    formula: Formula, method: str = "hybrid", **fields: Any
) -> SolveOutcome:
    """Decide whether a SUF formula is valid.

    ``method`` is ``"hybrid"`` (the paper's contribution), ``"sd"``,
    ``"eij"`` or ``"static"``.  ``fields`` are
    :class:`~repro.engine.contract.SolveRequest` fields, such as
    ``sep_thold`` or ``time_limit``; unset ones take the request's
    defaults.  A tripped transitivity budget or time limit during
    encoding gives ``TRANSLATION_LIMIT``, a tripped limit in the SAT
    search ``UNKNOWN``.
    """
    # Deferred import: repro.engine builds on this module (it reuses the
    # decoding helpers below), so the dependency must not be circular at
    # import time.
    from ..engine.contract import SolveRequest
    from ..engine.stages import run_eager

    return run_eager(SolveRequest(formula=formula, **fields), method=method)


def boolvar_model(cnf: Cnf, model: Dict[int, bool]) -> Dict[BoolVar, bool]:
    """Restrict a DIMACS model to the named Boolean variables."""
    out: Dict[BoolVar, bool] = {}
    for var, name in cnf.names.items():
        if isinstance(name, BoolVar) and var in model:
            out[name] = model[var]
    return out


def dimacs_literal(cnf: Cnf, literal: Formula) -> int:
    """Map a registry literal (BoolVar or its negation) to a DIMACS lit."""
    if isinstance(literal, Not):
        return -cnf.var_for(literal.arg)
    return cnf.var_for(literal)


def decode_countermodel(
    encoding: Encoding, boolvar_model: Dict[BoolVar, bool]
) -> Interpretation:
    """Turn a Boolean model of ``F_trans ∧ ¬F_bvar`` into integers.

    * SD-encoded constants: read their bit-vectors.
    * EIJ-encoded classes: the asserted difference bounds are consistent
      (``F_trans`` holds), so Bellman–Ford yields values.
    * ``V_p`` constants: fresh maximally diverse values, spaced far apart
      and far above everything general.
    * user-level symbolic Boolean constants: copied from the model.
    """
    analysis = encoding.analysis
    values: Dict[str, int] = {}

    # SD classes: direct bit readout.
    for var, bits in encoding.var_bits.items():
        values[var.name] = bv_value(bits, boolvar_model)

    # EIJ classes with bounds: complete the asserted bounds per class.
    # Equality-only classes instead partition by the true equality
    # variables and give each group a distinct value.
    eij_classes = [
        vclass
        for vclass in analysis.classes
        if encoding.method_of_class[vclass.index] == "EIJ"
    ]
    bound_vars = set()
    for vclass in eij_classes:
        if (
            vclass.has_inequality
            or vclass.has_offset
            or not encoding.uses_eq_vars
        ):
            bound_vars.update(vclass.vars)
        else:
            _decode_equality_class(
                vclass, encoding.registry, boolvar_model, values
            )
    if bound_vars:
        bounds = [
            b
            for b in encoding.registry.asserted_bounds(boolvar_model)
            if b.lhs in bound_vars and b.rhs in bound_vars
        ]
        result = check_bounds(bounds)
        if not result.consistent:
            raise AssertionError(
                "F_trans held but bounds are inconsistent — transitivity "
                "generation is incomplete"
            )
        for var in bound_vars:
            values[var.name] = result.model.get(var, 0) if result.model else 0

    # V_p constants: maximal diversity, far from all general values.  The
    # spacing must exceed every offset in the formula (including offsets in
    # pure-V_p atoms, which no class records), so it derives from the whole
    # pushed formula.
    span = max_offset_magnitude(analysis.pushed)
    floor = max(values.values(), default=0) + 10 * (span + 1) + 1
    step = 2 * span + 2
    for i, pvar in enumerate(sorted(analysis.p_vars, key=lambda v: v.name)):
        values[pvar.name] = floor + i * step

    # Any remaining constants (never compared in an atom): zero.
    for var in collect_vars(analysis.original):
        values.setdefault(var.name, 0)

    bools = {
        bv.name: boolvar_model.get(bv, False)
        for bv in collect_bool_vars(analysis.original)
    }
    return Interpretation(vars=values, bools=bools)


def _decode_equality_class(
    vclass: Any,
    registry: Any,
    boolvar_model: Dict[BoolVar, bool],
    values: Dict[str, int],
) -> None:
    """Assign values to an equality-only class from its eq-var assignment.

    True equality variables merge constants; each resulting group gets a
    distinct value (F_trans guarantees the merge respects the false
    variables, so groups really are separable)."""
    members = set(vclass.vars)
    union = DisjointSet(vclass.vars)
    for var in registry.all_eq_vars():
        if not boolvar_model.get(var, False):
            continue
        x, y = registry.eq_pair_of(var)
        if x in members and y in members:
            union.union(x, y)
    for index, group in enumerate(union.groups()):
        for member in group:
            values[member.name] = index


def lift_countermodel(
    info: FuncElimInfo, f_sep: Formula, sep_model: Interpretation
) -> Interpretation:
    """Lift a countermodel of ``F_sep`` to the original SUF vocabulary.

    Function (predicate) tables are rebuilt from the fresh constants: the
    ``i``-th occurrence defines the value at its argument tuple unless an
    earlier occurrence already defined that point (which mirrors the
    nested-ITE semantics exactly).
    """
    # Arguments of single-occurrence applications may mention constants
    # that vanished from F_sep entirely (the first occurrence of f(a) is
    # replaced by vf1 alone) — give those arbitrary default values.
    complete = Interpretation(
        vars=dict(sep_model.vars),
        bools=dict(sep_model.bools),
        func_default=sep_model.func_default,
        pred_default=sep_model.pred_default,
    )
    arg_terms = [
        a
        for entries in list(info.func_consts.values())
        + list(info.pred_consts.values())
        for args, _ in entries
        for a in args
    ]
    for term in arg_terms:
        for var in collect_vars(term):
            complete.vars.setdefault(var.name, 0)
        for bvar in collect_bool_vars(term):
            complete.bools.setdefault(bvar.name, False)
    for entries in info.func_consts.values():
        for _, var in entries:
            complete.vars.setdefault(var.name, 0)
    for entries in info.pred_consts.values():
        for _, var in entries:
            complete.bools.setdefault(var.name, False)

    lifted = Interpretation(
        vars=dict(complete.vars),
        bools=dict(complete.bools),
        func_default=sep_model.func_default,
        pred_default=sep_model.pred_default,
    )
    for symbol, entries in info.func_consts.items():
        table = lifted.funcs.setdefault(symbol, {})
        for args, var in entries:
            key = tuple(evaluate_term(a, complete) for a in args)
            if key not in table:
                table[key] = complete.var(var.name)
    for symbol, entries in info.pred_consts.items():
        table = lifted.preds.setdefault(symbol, {})
        for args, var in entries:
            key = tuple(evaluate_term(a, complete) for a in args)
            if key not in table:
                table[key] = complete.boolvar(var.name)
    return lifted
