"""The eager pipeline, restructured as individually-timed stages.

``func-elim → encode → cnf → preprocess → sat → decode`` is the paper's
§2.1 flow plus a SatELite-style CNF simplification stage
(:mod:`repro.sat.preprocess`); this module is the single implementation
behind the ``sd`` / ``eij`` / ``hybrid`` / ``static`` engines *and*
:func:`repro.core.decision.check_validity`.  Every stage appends a
:class:`~repro.core.result.StageRecord` (wall seconds plus counters)
through a :class:`~repro.core.result.StageClock`; those records are the
only place the solve's times and sizes are written.  The preprocess
stage is skipped when ``SolveRequest.preprocess`` is false (``repro
check --no-preprocess``); when it runs, eliminated variables are
re-derived through the model-reconstruction stack before countermodel
decode.

When :func:`run_eager` runs the SAT search itself, HYBRID may send a
class to ``LAZY`` (EIJ atoms, no transitivity clauses).  The ``sat``
stage's one search then carries a difference-logic theory over those
classes' bound variables
(:class:`~repro.theory.difference.DifferenceTheory`): the solver checks
the bounds its trail asserts at every propagation fixpoint and learns
each negative cycle as a conflict clause, so a SAT model's bounds are
consistent.  The preprocessor keeps the bound variables frozen, so the
theory sees every bound a model asserts.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Set

from ..core.decision import (
    boolvar_model,
    decode_countermodel,
    lift_countermodel,
)
from ..core.result import (
    DecisionStats,
    SolveOutcome,
    StageClock,
    StageRecord,
)
from ..core.status import Status
from ..encodings.hybrid import (
    LAZY,
    Encoding,
    encode_eij,
    encode_hybrid,
    encode_sd,
    encode_static_hybrid,
)
from ..encodings.sepvars import Bound
from ..encodings.transitivity import TransitivityBudgetExceeded
from ..logic.semantics import evaluate
from ..logic.terms import Var
from ..logic.traversal import dag_size
from ..sat.preprocess import preprocess_cnf
from ..sat.solver import CdclSolver, SatStats
from ..sat.tseitin import to_cnf
from ..theory.difference import DifferenceTheory
from ..transform.func_elim import eliminate_applications
from .contract import SolveRequest

__all__ = ["run_eager", "SatRunner"]

#: Replacement SAT search for :func:`run_eager`: called with the solver's
#: CNF, the request, the live ``sat`` :class:`StageRecord`, and the CNF
#: variable ids of the surviving separation predicates (EIJ/equality
#: registry variables — see ``cnf`` stage artifacts).  Must return a
#: :class:`repro.sat.solver.SatResult`-shaped object.  Cube-and-conquer
#: (:mod:`repro.engine.cube`) plugs in here; everything before and after
#: the SAT stage — encoding, preprocessing, model reconstruction,
#: countermodel decode — is shared with the sequential engines.
SatRunner = Callable[[Any, SolveRequest, StageRecord, List[int]], Any]


#: Each encoder is called with ``F_sep``, the request, the solve's
#: deadline (a :func:`time.perf_counter` value, or ``None``), which bounds
#: transitivity generation the way ``trans_budget`` does, and whether the
#: ``sat`` stage checks LAZY classes (no ``sat_runner``).  HYBRID reads
#: ``options["paper_rule"]``, which ``repro experiment`` sets to run the
#: paper's SepCnt rule alone, and picks LAZY classes only when the
#: ``sat`` stage checks them.
_ENCODERS = {
    "sd": lambda f_sep, req, deadline, lazy: encode_sd(
        f_sep, sd_ranges=req.sd_ranges
    ),
    "eij": lambda f_sep, req, deadline, lazy: encode_eij(
        f_sep, trans_budget=req.trans_budget, deadline=deadline
    ),
    "static": lambda f_sep, req, deadline, lazy: encode_static_hybrid(
        f_sep, trans_budget=req.trans_budget, deadline=deadline
    ),
    "hybrid": lambda f_sep, req, deadline, lazy: encode_hybrid(
        f_sep,
        sep_thold=req.sep_thold,
        trans_budget=req.trans_budget,
        deadline=deadline,
        paper_rule=req.options.get("paper_rule", False),
        lazy=lazy,
    ),
}


def run_eager(
    request: SolveRequest,
    method: str = "hybrid",
    sat_runner: Optional[SatRunner] = None,
) -> SolveOutcome:
    """Run the eager pipeline end to end with per-stage telemetry.

    The returned outcome's ``stats.stages`` holds one record per stage
    that ran; ``stats.encode_seconds`` / ``stats.sat_seconds`` are
    derived from them (func-elim + encode + CNF + preprocess, and the
    SAT search) and ``wall_seconds`` covers the whole run, decode
    included.

    ``request.time_limit`` bounds transitivity generation, counted from
    the start of the run, and the SAT search on its own: the first ends
    as ``TRANSLATION_LIMIT``, the second as ``UNKNOWN``.  LAZY classes
    change neither: their bounds are checked inside the one search.

    A ``sat_runner`` replaces the SAT search and attaches no theory, so
    the encoder then keeps every class eager (SD or EIJ).
    """
    if method not in _ENCODERS:
        raise ValueError(
            "unknown eager method %r; expected one of %r"
            % (method, tuple(_ENCODERS))
        )
    clock = StageClock()
    stats = DecisionStats(method=method.upper(), stages=clock.records)
    start = time.perf_counter()
    deadline = None
    if request.time_limit is not None:
        deadline = start + request.time_limit

    def outcome(
        status: Status,
        counterexample: Optional[Any] = None,
        detail: str = "",
    ) -> SolveOutcome:
        return SolveOutcome(
            engine=method,
            status=status,
            stats=stats,
            counterexample=counterexample,
            detail=detail,
            wall_seconds=time.perf_counter() - start,
        )

    with clock.stage("func-elim") as rec:
        rec.counters["dag_suf"] = dag_size(request.formula)
        f_sep, elim_info = eliminate_applications(request.formula)
        rec.counters["dag_sep"] = dag_size(f_sep)
        rec.counters["fresh_consts"] = len(elim_info.fresh_func_vars()) + len(
            elim_info.fresh_pred_vars()
        )

    try:
        with clock.stage("encode") as rec:
            encoding = _ENCODERS[method](
                f_sep, request, deadline, sat_runner is None
            )
            rec.counters["classes"] = encoding.stats.num_classes
            rec.counters["sd_classes"] = encoding.stats.sd_classes
            rec.counters["eij_classes"] = encoding.stats.eij_classes
            rec.counters["lazy_classes"] = encoding.stats.lazy_classes
            rec.counters["eq_bound_classes"] = (
                encoding.stats.eq_bound_classes
            )
            rec.counters["sep_vars"] = encoding.stats.sep_vars
            rec.counters["trans_clauses"] = encoding.stats.trans_clauses
            rec.counters["sep_count"] = encoding.stats.total_sep_count
    except TransitivityBudgetExceeded as exc:
        # The paper's translation-stage timeout: the clause budget or the
        # time limit tripped.  Report how far generation got.
        rec.counters["trans_clauses"] = exc.clauses
        return outcome(Status.TRANSLATION_LIMIT, detail=str(exc))

    with clock.stage("cnf") as rec:
        cnf = to_cnf(encoding.check_formula, mode="pg")
        rec.counters["vars"] = cnf.num_vars
        rec.counters["clauses"] = len(cnf)
        # Surface the EIJ→CNF-var map: these are the separation
        # predicates cube-and-conquer prefers as splitting points.
        sep_cnf_vars = encoding.registry.cnf_var_ids(cnf)
        rec.counters["sep_cnf_vars"] = len(sep_cnf_vars)
        rec.artifacts["sep_cnf_vars"] = sep_cnf_vars

    pre = None
    solver_cnf = cnf
    if request.preprocess:
        with clock.stage("preprocess") as rec:
            # The theory reads every bound a model asserts: freeze them.
            frozen = (
                encoding.registry.cnf_var_ids(cnf, eq_vars=False)
                if encoding.stats.lazy_classes
                else ()
            )
            pre = preprocess_cnf(cnf, frozen)
            solver_cnf = pre.simplified
            rec.counters["clauses_before"] = pre.stats.clauses_before
            rec.counters["clauses_after"] = pre.stats.clauses_after
            rec.counters["vars_before"] = pre.stats.vars_before
            rec.counters["vars_after"] = pre.stats.vars_after
            rec.counters["units"] = pre.stats.units_fixed
            rec.counters["pure"] = pre.stats.pure_literals
            rec.counters["subsumed"] = pre.stats.clauses_subsumed
            rec.counters["strengthened"] = pre.stats.literals_strengthened
            rec.counters["eliminated"] = pre.stats.vars_eliminated
            rec.counters["rounds"] = pre.stats.rounds
            rec.counters["clauses_scanned"] = pre.stats.clauses_scanned
        if pre.status == "UNSAT":
            # Preprocessing closed the instance; the search never runs,
            # so report truthful all-zero SAT counters.
            stats.sat = SatStats(original_clauses=pre.stats.clauses_before)
            return outcome(Status.VALID)

    with clock.stage("sat") as rec:
        if sat_runner is not None:
            sat_result = sat_runner(solver_cnf, request, rec, sep_cnf_vars)
        else:
            sat_result = CdclSolver(
                solver_cnf,
                time_limit=request.time_limit,
                theory=_lazy_theory(encoding, solver_cnf),
            ).solve()
        stats.sat = sat_result.stats
        rec.counters["decisions"] = sat_result.stats.decisions
        rec.counters["propagations"] = sat_result.stats.propagations
        rec.counters["conflicts"] = sat_result.stats.conflicts
        rec.counters["theory_conflicts"] = sat_result.stats.theory_conflicts
        rec.counters["learned"] = sat_result.stats.learned_clauses

    if sat_result.status == "UNKNOWN":
        return outcome(Status.UNKNOWN)
    if sat_result.is_unsat:
        return outcome(Status.VALID)

    counterexample = None
    if request.want_countermodel:
        with clock.stage("decode") as rec:
            sat_model = sat_result.model
            if pre is not None:
                # Re-derive eliminated/fixed variables so the model
                # satisfies the *original* CNF before decoding.
                sat_model = pre.reconstruct(sat_model)
            model = boolvar_model(cnf, sat_model)
            sep_model = decode_countermodel(encoding, model)
            counterexample = lift_countermodel(elim_info, f_sep, sep_model)
            rec.counters["model_vars"] = len(counterexample.vars)
            if evaluate(f_sep, sep_model):
                raise AssertionError(
                    "decoded countermodel does not falsify F_sep — "
                    "encoding bug"
                )
    return outcome(Status.INVALID, counterexample=counterexample)


def _lazy_theory(encoding: Encoding, cnf: Any) -> Optional[DifferenceTheory]:
    """The in-search check of the LAZY classes' bounds (``None``: none).

    Only LAZY classes' bound variables are atoms: ``F_trans`` closes the
    EIJ classes, and no two classes share a constant.
    """
    among: Set[Var] = set()
    for vclass in encoding.analysis.classes:
        if encoding.method_of_class[vclass.index] == LAZY:
            among.update(vclass.vars)
    if not among:
        return None
    registry = encoding.registry
    atoms: Dict[int, Bound] = {}
    for var in registry.all_vars():
        bound = registry.bound_of(var)
        cnf_id = cnf.lookup(var)
        if bound is not None and bound.lhs in among and cnf_id is not None:
            atoms[cnf_id] = bound
    return DifferenceTheory(cnf.num_vars, atoms)
