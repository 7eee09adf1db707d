"""The paper's encoders: small-domain (SD), per-constraint (EIJ), HYBRID.

All three are produced by one engine, because the paper defines them that
way: under the paper's rule, HYBRID with ``SEP_THOLD = 0`` is SD, and
with ``SEP_THOLD = None`` (infinity) it is EIJ.  The engine follows §4
step by step:

1. run the separation analysis (classes, domains, SepCnt);
2. for each class, pick the method (:func:`choose_method`): the paper's
   rule is ``SD`` when ``SepCnt(Vi) > SEP_THOLD``, else ``EIJ``.
   :func:`encode_hybrid` also sends an equality-only class above the
   threshold to ``EIJ`` when its transitivity provably fits the budget,
   and, when its caller checks the bounds inside the SAT search
   (``lazy=True``, as :func:`repro.engine.stages.run_eager` does),
   every class with ``<`` or an offset to ``LAZY``: EIJ atoms and no
   transitivity clauses, whose negative cycles the search learns as
   conflict clauses (the CVC baseline's clauses, DPLL(T)-style).
   ``paper_rule=True`` (what ``repro experiment`` runs) turns both off.
   Each public encoder hands the engine its own per-class choice: SD is
   the paper's rule at threshold 0, EIJ always ``EIJ``, and the CVC
   baseline (``encode_eij(..., transitivity=False)``) always ``LAZY``;
3. recurse over the formula structure — Boolean connectives map to
   themselves, atoms are encoded per their class's method:

   * **EIJ atom** ``T1 ⋈ T2``: enumerate the guarded ground terms of both
     sides and build ``∨ᵢⱼ c1ᵢ ∧ c2ⱼ ∧ e(gᵢ ⋈ gⱼ)``, where ``e(...)`` is a
     literal (or a 2-literal conjunction, for equalities) over fresh
     difference-bound Boolean variables; pairs touching a ``V_p`` constant
     encode to ``false`` (maximal diversity);
   * **SD atom**: encode each side as a symbolic bit-vector over the
     class's small domain — ITEs become multiplexors, offsets become
     add-a-constant circuits, ``V_p`` constants take fixed, well-separated
     codes above the general domain — and compare with an equality or
     unsigned-less-than comparator;

4. conjoin the per-class transitivity constraints (EIJ classes) and the
   domain-bound constraints (SD classes) into ``F_trans``; a LAZY class
   adds nothing, and its consistency is left to the caller's
   in-search theory check;
5. the result represents ``F_bool = F_trans ⟹ F_bvar``; validity of the
   input is checked by testing ``F_trans ∧ ¬F_bvar`` for unsatisfiability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..logic.terms import (
    And,
    BoolConst,
    BoolVar,
    Eq,
    FALSE,
    Formula,
    Iff,
    Implies,
    Ite,
    Lt,
    Node,
    Not,
    Or,
    Term,
    TRUE,
    Var,
)
from ..logic.traversal import postorder
from ..separation.analysis import (
    SeparationAnalysis,
    VarClass,
    analyze_separation,
)
from ..transform.ground import enumerate_leaf_paths, split_ground
from .bitvector import (
    bv_add_const,
    bv_const,
    bv_eq,
    bv_mux,
    bv_ule,
    bv_ult,
    bv_var,
    width_for,
)
from .sepvars import SepVarRegistry
from .transitivity import (
    TransitivityStats,
    equality_clause_bound,
    generate_equality_transitivity,
    generate_transitivity,
)

__all__ = [
    "DEFAULT_SEP_THOLD",
    "DEFAULT_TRANS_BUDGET",
    "choose_method",
    "EncodingStats",
    "Encoding",
    "encode_hybrid",
    "encode_sd",
    "encode_eij",
    "encode_static_hybrid",
]

# HYBRID's two settings, written only here.  ``SolveRequest`` takes them
# as its field defaults, so the CLI, serve, sessions, compete,
# ``check_validity`` and the experiments all run the configuration
# perfbench measures (tests/test_defaults.py pins perfbench's copies).

#: SEP_THOLD selected by the paper's §4.1 procedure (cluster the
#: normalized EIJ run-times of a 16-benchmark sample, round the boundary
#: benchmark's SepCnt up to a multiple of 100) on this repository's
#: sample; ``repro experiment threshold`` reruns it.  The paper's own
#: sample gave n_k = 676 -> 700: the value is suite-relative by design.
DEFAULT_SEP_THOLD = 100

#: Transitivity clauses each EIJ class may generate before the encoding
#: gives up as ``TRANSLATION_LIMIT`` — the analogue of the paper's
#: translation-stage timeouts.  The budget counts per class, so a
#: formula may generate up to (EIJ classes) x budget clauses in all;
#: the solve's time limit still bounds the total.
DEFAULT_TRANS_BUDGET = 100_000

SD = "SD"
EIJ = "EIJ"
LAZY = "LAZY"


def _equality_only(vclass: VarClass) -> bool:
    return not (vclass.has_inequality or vclass.has_offset)


def has_eq_vars(vclass: VarClass, method: str) -> bool:
    """Whether a class encoded by ``method`` gets one equality variable
    per pair: an equality-only EIJ class.  Every other EIJ or LAZY class
    splits each equality into two difference bounds."""
    return method == EIJ and _equality_only(vclass)


def choose_method(
    vclass: VarClass,
    sep_thold: Optional[int],
    trans_budget: Optional[int],
    paper_rule: bool = False,
    lazy: bool = False,
) -> str:
    """HYBRID's choice of ``SD``, ``EIJ`` or ``LAZY`` for one class.

    The paper's rule (§4 step 2) is ``SD`` when ``SepCnt(Vi) >
    SEP_THOLD``, else ``EIJ``; ``sep_thold=None`` is infinity.  SepCnt
    stands in for the EIJ transitivity blow-up, which an equality-only
    class (no ``<``, no offset) cannot have: its clauses never exceed
    :func:`~repro.encodings.transitivity.equality_clause_bound` of its
    constants.  So unless ``paper_rule``, such a class above the
    threshold is ``EIJ`` too when that bound fits ``trans_budget``
    (``None``: no budget), and its generation can never trip the budget.

    ``lazy`` says the caller checks the bounds the SAT search asserts as
    it assigns them.  Then, unless ``paper_rule``, every class with
    ``<`` or an offset is ``LAZY`` whatever its SepCnt: its transitivity
    is the one that can blow up, and the search learns only the
    negative cycles its assignments actually close.
    """
    if lazy and not paper_rule and not _equality_only(vclass):
        return LAZY
    if sep_thold is None or vclass.sep_count <= sep_thold:
        return EIJ
    if paper_rule or not _equality_only(vclass):
        return SD
    bound = equality_clause_bound(len(vclass.vars))
    return EIJ if trans_budget is None or bound <= trans_budget else SD


@dataclass
class EncodingStats:
    """Size accounting for one encoding run."""

    method: str = "HYBRID"
    sep_thold: Optional[int] = DEFAULT_SEP_THOLD
    num_classes: int = 0
    sd_classes: int = 0
    #: Classes with EIJ atoms, LAZY ones included.
    eij_classes: int = 0
    #: Classes with EIJ atoms and no transitivity clauses.
    lazy_classes: int = 0
    #: EIJ classes above SEP_THOLD: the equality-only bound admitted them.
    eq_bound_classes: int = 0
    sep_vars: int = 0
    derived_sep_vars: int = 0
    trans_clauses: int = 0
    sd_bits: int = 0
    max_width: int = 0
    total_sep_count: int = 0


@dataclass
class Encoding:
    """The propositional encoding of a separation-logic formula."""

    f_bvar: Formula
    f_trans: Formula
    analysis: SeparationAnalysis
    registry: SepVarRegistry
    var_bits: Dict[Var, List[BoolVar]]
    class_shift: Dict[int, int]
    p_codes: Dict[int, Dict[Var, int]]
    method_of_class: Dict[int, str]
    stats: EncodingStats = field(default_factory=EncodingStats)

    @property
    def f_bool(self) -> Formula:
        """``F_trans ⟹ F_bvar`` — valid iff the input formula is valid."""
        return Implies(self.f_trans, self.f_bvar)

    @property
    def check_formula(self) -> Formula:
        """``F_trans ∧ ¬F_bvar`` — satisfiable iff the input is invalid."""
        return And(self.f_trans, Not(self.f_bvar))


class _HybridEngine:
    def __init__(
        self,
        analysis: SeparationAnalysis,
        method_of: Callable[[VarClass], str],
        sep_thold: Optional[int],
        trans_budget: Optional[int],
        method_name: str,
        sd_ranges: str = "uniform",
        deadline: Optional[float] = None,
    ) -> None:
        self.analysis = analysis
        self.sep_thold = sep_thold
        self.trans_budget = trans_budget
        self.deadline = deadline
        if sd_ranges not in ("uniform", "ascending"):
            raise ValueError(
                "sd_ranges must be 'uniform' or 'ascending', got %r"
                % (sd_ranges,)
            )
        self.sd_ranges = sd_ranges
        self.registry = SepVarRegistry()
        self.var_bits: Dict[Var, List[BoolVar]] = {}
        self.class_shift: Dict[int, int] = {}
        self.class_width: Dict[int, int] = {}
        self.p_codes: Dict[int, Dict[Var, int]] = {}
        self.method_of_class: Dict[int, str] = {
            vclass.index: method_of(vclass) for vclass in analysis.classes
        }
        self.term_bits: Dict[Tuple[int, Term], List[Formula]] = {}
        self.fmemo: Dict[Formula, Formula] = {}
        self.stats = EncodingStats(method=method_name, sep_thold=sep_thold)

    # -- SD machinery ---------------------------------------------------------

    def _setup_sd_class(self, vclass: VarClass) -> None:
        if vclass.index in self.class_shift:
            return
        span = vclass.max_span
        shift = span
        r = vclass.range_size
        codes: Dict[Var, int] = {}
        # V_p constants appearing in this class's atoms get fixed codes
        # above the general domain, spaced so that no offset can make two
        # distinct bases collide (maximal diversity, concretely).
        step = 2 * span + 1
        base = r + 2 * span + 1
        for i, pvar in enumerate(vclass.p_leaves):
            codes[pvar] = base + i * step
        max_value = base + max(0, len(vclass.p_leaves) - 1) * step + 2 * span
        width = width_for(max(max_value, r - 1 + 2 * span, 1))
        self.class_shift[vclass.index] = shift
        self.class_width[vclass.index] = width
        self.p_codes[vclass.index] = codes
        self.stats.max_width = max(self.stats.max_width, width)

    def _sd_var_bits(self, var: Var, vclass: VarClass) -> List[Formula]:
        bits = self.var_bits.get(var)
        if bits is None:
            width = self.class_width[vclass.index]
            bits = bv_var("$bit:%s" % var.name, width)
            self.var_bits[var] = bits
            self.stats.sd_bits += width
        return bits

    def _sd_domain_constraints(self, vclass: VarClass) -> List[Formula]:
        """Domain bounds for every encoded class constant.

        ``uniform`` (the paper's §4 step 3): every constant ranges over
        ``[0, range(Vi) - 1]``.  ``ascending`` applies the tighter
        Pnueli–Rodeh–Shtrichman–Siegel allocation to *equality-only*
        classes — the i-th constant only needs ``[0, i]`` — which shrinks
        the SAT search space without affecting completeness; classes with
        offsets or inequalities keep the uniform window.
        """
        out: List[Formula] = []
        width = self.class_width[vclass.index]
        ascending = self.sd_ranges == "ascending" and not (
            vclass.has_inequality or vclass.has_offset
        )
        uniform_limit = bv_const(vclass.range_size - 1, width)
        for index, var in enumerate(vclass.vars):
            if var not in self.var_bits:
                continue
            if ascending:
                out.append(
                    bv_ule(self.var_bits[var], bv_const(index, width))
                )
            else:
                out.append(bv_ule(self.var_bits[var], uniform_limit))
        return out

    def _sd_term(self, term: Term, vclass: VarClass) -> List[Formula]:
        """Encode an offset-pushed term as a bit-vector over the class."""
        key = (vclass.index, term)
        cached = self.term_bits.get(key)
        if cached is not None:
            return cached
        width = self.class_width[vclass.index]
        shift = self.class_shift[vclass.index]
        if isinstance(term, Ite):
            cond = self.fmemo[term.cond]
            bits = bv_mux(
                cond,
                self._sd_term(term.then, vclass),
                self._sd_term(term.els, vclass),
            )
        else:
            base, k = split_ground(term)
            if base in self.analysis.p_vars:
                code = self.p_codes[vclass.index][base]
                bits = bv_const(code + k + shift, width)
            else:
                bits = bv_add_const(self._sd_var_bits(base, vclass), k + shift)
        self.term_bits[key] = bits
        return bits

    def _encode_atom_sd(self, atom: Formula, vclass: VarClass) -> Formula:
        self._setup_sd_class(vclass)
        lhs = self._sd_term(atom.lhs, vclass)
        rhs = self._sd_term(atom.rhs, vclass)
        if isinstance(atom, Eq):
            return bv_eq(lhs, rhs)
        return bv_ult(lhs, rhs)

    # -- EIJ machinery ---------------------------------------------------------

    def _eij_pair(
        self, g1: Term, g2: Term, is_eq: bool, equality_only: bool
    ) -> Formula:
        """Encode ``g1 = g2`` or ``g1 < g2`` over ground terms.

        In an *equality-only* class (no inequalities, no offsets) a single
        Boolean variable per pair suffices and keeps the transitivity
        constraints polynomial; otherwise equalities split into two
        difference bounds over the integers.
        """
        x, k1 = split_ground(g1)
        y, k2 = split_ground(g2)
        p_vars = self.analysis.p_vars
        if x is y:
            if is_eq:
                return TRUE if k1 == k2 else FALSE
            return TRUE if k1 < k2 else FALSE
        if x in p_vars or y in p_vars:
            if is_eq:
                # Maximal diversity: distinct p-bases never coincide, and a
                # p-constant never equals a general value.
                return FALSE
            raise AssertionError(
                "V_p constant under an inequality — the polarity analysis "
                "should have classified it general: %r < %r" % (g1, g2)
            )
        if equality_only:
            if not (is_eq and k1 == 0 and k2 == 0):
                raise AssertionError(
                    "non-equality atom in an equality-only class"
                )
            return self.registry.eq_var(x, y)
        if is_eq:
            c = k2 - k1
            return And(
                self.registry.literal(x, y, c),
                self.registry.literal(y, x, -c),
            )
        return self.registry.literal(x, y, k2 - k1 - 1)

    def _is_equality_only(self, vclass: Optional[VarClass]) -> bool:
        return vclass is not None and has_eq_vars(
            vclass, self.method_of_class[vclass.index]
        )

    def _encode_atom_eij(self, atom: Formula) -> Formula:
        is_eq = isinstance(atom, Eq)
        equality_only = self._is_equality_only(
            self.analysis.atom_class.get(atom)
        )
        lhs_paths = enumerate_leaf_paths(atom.lhs)
        rhs_paths = enumerate_leaf_paths(atom.rhs)
        disjuncts: List[Formula] = []
        for path1, g1 in lhs_paths:
            guard1 = [
                self.fmemo[cond] if pol else Not(self.fmemo[cond])
                for cond, pol in path1
            ]
            for path2, g2 in rhs_paths:
                guard2 = [
                    self.fmemo[cond] if pol else Not(self.fmemo[cond])
                    for cond, pol in path2
                ]
                pair = self._eij_pair(g1, g2, is_eq, equality_only)
                disjuncts.append(And(*(guard1 + guard2 + [pair])))
        return Or(*disjuncts)

    # -- skeleton --------------------------------------------------------------

    def _encode_atom(self, atom: Formula) -> Formula:
        vclass = self.analysis.atom_class.get(atom)
        if vclass is None:
            # Pure-V_p atom: every ground pair folds to a constant.
            return self._encode_atom_eij(atom)
        if self.method_of_class[vclass.index] == SD:
            return self._encode_atom_sd(atom, vclass)
        return self._encode_atom_eij(atom)

    def encode(self) -> Encoding:
        pushed = self.analysis.pushed
        fmemo = self.fmemo
        for node in postorder(pushed):
            if node in fmemo or isinstance(node, Term):
                continue
            if isinstance(node, (BoolConst, BoolVar)):
                fmemo[node] = node
            elif isinstance(node, Not):
                fmemo[node] = Not(fmemo[node.arg])
            elif isinstance(node, And):
                fmemo[node] = And(*[fmemo[a] for a in node.args])
            elif isinstance(node, Or):
                fmemo[node] = Or(*[fmemo[a] for a in node.args])
            elif isinstance(node, Implies):
                fmemo[node] = Implies(fmemo[node.lhs], fmemo[node.rhs])
            elif isinstance(node, Iff):
                fmemo[node] = Iff(fmemo[node.lhs], fmemo[node.rhs])
            elif isinstance(node, (Eq, Lt)):
                fmemo[node] = self._encode_atom(node)
            else:
                raise TypeError("unknown formula kind: %r" % (type(node),))
        f_bvar = fmemo[pushed]

        # F_trans: transitivity for EIJ classes, domain bounds for SD ones,
        # nothing for LAZY ones.  Each class has its own count, which the
        # budget caps.
        trans_parts: List[Formula] = []
        trans_clauses = 0
        for vclass in self.analysis.classes:
            method = self.method_of_class[vclass.index]
            if method == LAZY:
                continue
            if method == EIJ:
                tstats = TransitivityStats()
                if self._is_equality_only(vclass):
                    clauses = generate_equality_transitivity(
                        self.registry,
                        vclass.vars,
                        budget=self.trans_budget,
                        stats=tstats,
                        deadline=self.deadline,
                    )
                else:
                    clauses = generate_transitivity(
                        self.registry,
                        vclass.vars,
                        budget=self.trans_budget,
                        stats=tstats,
                        deadline=self.deadline,
                    )
                trans_parts.extend(clauses)
                trans_clauses += tstats.clauses
            else:
                trans_parts.extend(self._sd_domain_constraints(vclass))
        f_trans = And(*trans_parts)

        stats = self.stats
        stats.num_classes = len(self.analysis.classes)
        stats.sd_classes = sum(
            1 for m in self.method_of_class.values() if m == SD
        )
        stats.eij_classes = stats.num_classes - stats.sd_classes
        stats.lazy_classes = sum(
            1 for m in self.method_of_class.values() if m == LAZY
        )
        if self.sep_thold is not None:
            stats.eq_bound_classes = sum(
                1
                for vclass in self.analysis.classes
                if vclass.sep_count > self.sep_thold
                and self.method_of_class[vclass.index] == EIJ
            )
        stats.sep_vars = self.registry.atom_var_count
        stats.derived_sep_vars = self.registry.derived_var_count
        stats.trans_clauses = trans_clauses
        stats.total_sep_count = self.analysis.total_sep_count()

        return Encoding(
            f_bvar=f_bvar,
            f_trans=f_trans,
            analysis=self.analysis,
            registry=self.registry,
            var_bits=self.var_bits,
            class_shift=self.class_shift,
            p_codes=self.p_codes,
            method_of_class=self.method_of_class,
            stats=stats,
        )


def _encode(
    f_sep: Formula,
    method_of: Callable[[VarClass], str],
    sep_thold: Optional[int],
    trans_budget: Optional[int],
    method_name: str,
    analysis: Optional[SeparationAnalysis] = None,
    sd_ranges: str = "uniform",
    deadline: Optional[float] = None,
) -> Encoding:
    if analysis is None:
        analysis = analyze_separation(f_sep)
    engine = _HybridEngine(
        analysis,
        method_of,
        sep_thold,
        trans_budget,
        method_name,
        sd_ranges=sd_ranges,
        deadline=deadline,
    )
    return engine.encode()


def encode_hybrid(
    f_sep: Formula,
    sep_thold: int = DEFAULT_SEP_THOLD,
    trans_budget: int = DEFAULT_TRANS_BUDGET,
    analysis: Optional[SeparationAnalysis] = None,
    deadline: Optional[float] = None,
    paper_rule: bool = False,
    lazy: bool = False,
) -> Encoding:
    """The paper's HYBRID encoding with the given ``SEP_THOLD``.

    Each class's method is :func:`choose_method`'s: an equality-only
    class above the threshold goes to EIJ when its transitivity provably
    fits ``trans_budget``, and with ``lazy`` every class with ``<`` or an
    offset goes to LAZY, unless ``paper_rule`` asks for the paper's
    SepCnt rule alone.  A caller that passes ``lazy`` must check the
    LAZY classes' bounds in the SAT search (a
    :class:`~repro.theory.difference.DifferenceTheory`): the encoding
    leaves out their transitivity.

    Transitivity generation raises
    :class:`~repro.encodings.transitivity.TransitivityBudgetExceeded`
    when one class passes ``trans_budget`` clauses or the clock passes
    ``deadline`` (a :func:`time.perf_counter` value); so do the other
    encoders that take them.
    """
    return _encode(
        f_sep,
        lambda vclass: choose_method(
            vclass, sep_thold, trans_budget, paper_rule, lazy
        ),
        sep_thold,
        trans_budget,
        "HYBRID",
        analysis,
        deadline=deadline,
    )


def encode_sd(
    f_sep: Formula,
    analysis: Optional[SeparationAnalysis] = None,
    sd_ranges: str = "uniform",
) -> Encoding:
    """Pure small-domain encoding (HYBRID with ``SEP_THOLD = 0``).

    ``sd_ranges="ascending"`` enables the tighter Pnueli-et-al. range
    allocation on equality-only classes (the paper's reference [12]).
    """
    return _encode(
        f_sep,
        lambda vclass: choose_method(vclass, 0, None, paper_rule=True),
        0,
        None,
        "SD",
        analysis,
        sd_ranges=sd_ranges,
    )


def encode_static_hybrid(
    f_sep: Formula,
    trans_budget: int = DEFAULT_TRANS_BUDGET,
    analysis: Optional[SeparationAnalysis] = None,
    deadline: Optional[float] = None,
) -> Encoding:
    """The CFV'02 *fixed* hybrid the paper says met with limited success:
    equalities without arithmetic use EIJ, everything else uses SD — the
    choice never looks at formula features such as SepCnt."""
    return _encode(
        f_sep,
        lambda vclass: EIJ if _equality_only(vclass) else SD,
        None,
        trans_budget,
        "STATIC",
        analysis,
        deadline=deadline,
    )


def encode_eij(
    f_sep: Formula,
    trans_budget: int = DEFAULT_TRANS_BUDGET,
    analysis: Optional[SeparationAnalysis] = None,
    transitivity: bool = True,
    deadline: Optional[float] = None,
) -> Encoding:
    """Pure per-constraint encoding (HYBRID with infinite ``SEP_THOLD``).

    ``transitivity=False`` makes every class LAZY: EIJ atoms, every
    equality split into difference bounds, and no ``F_trans``.  The lazy
    (CVC-style) solver encodes so and enforces consistency by refinement.
    """
    method = EIJ if transitivity else LAZY
    return _encode(
        f_sep,
        lambda vclass: method,
        None,
        trans_budget,
        "EIJ",
        analysis,
        deadline=deadline,
    )
