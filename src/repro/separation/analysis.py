"""Steps 1–4 of the paper's hybrid method (§4): classes, domains, SepCnt.

Given an application-free separation-logic formula ``F_sep``, this module

1. runs the positive-equality analysis to split the symbolic constants into
   ``V_p`` (encodable under maximal diversity) and ``V_g``;
2. pushes offsets through ITEs so every atom ranges over *ground terms*;
3. groups the ``V_g`` constants into equivalence classes: constants that are
   compared to each other — directly or through ITE branches — land in the
   same class, so each class can be encoded independently;
4. computes, per class, the small-model domain size
   ``range(Vi) = sum over v of (u(v) - l(v) + 1)``
   (``u``/``l`` = max/min offset of ``v`` in any ground term) and the
   ``SepCnt`` upper bound on the number of separation predicates whose two
   sides fall in that class.

The result object is everything the SD / EIJ / HYBRID encoders need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..logic.terms import Eq, Formula, Lt, Var
from ..logic.traversal import iter_dag
from ..transform.ground import (
    ground_terms_of,
    leaf_count,
    push_offsets,
    split_ground,
)
from ..transform.polarity import PolarityInfo, analyze_polarity
from .unionfind import DisjointSet

__all__ = ["VarClass", "SeparationAnalysis", "analyze_separation"]


@dataclass
class VarClass:
    """One equivalence class of general (``V_g``) symbolic constants."""

    index: int
    vars: List[Var]
    upper: Dict[Var, int] = field(default_factory=dict)  # u(v)
    lower: Dict[Var, int] = field(default_factory=dict)  # l(v)
    range_size: int = 0
    sep_count: int = 0
    # p-constants that appear (as ground leaves) in this class's atoms;
    # the SD encoder gives them concrete codes outside the g-domain.
    p_leaves: List[Var] = field(default_factory=list)
    max_span: int = 0  # largest |offset| occurring in the class's leaves
    has_inequality: bool = False  # some class atom is a strict <
    has_offset: bool = False  # some class leaf carries a nonzero offset

    def __contains__(self, var: Var) -> bool:
        return var in self.upper or var in set(self.vars)


@dataclass
class SeparationAnalysis:
    """Everything the encoders need to know about ``F_sep``."""

    original: Formula
    pushed: Formula  # offsets pushed through ITEs
    polarity: PolarityInfo
    classes: List[VarClass]
    class_of: Dict[Var, VarClass]  # V_g constant -> its class
    atom_class: Dict[Formula, Optional[VarClass]]  # atom -> class (or None)

    @property
    def p_vars(self) -> Set[Var]:
        return self.polarity.p_vars

    @property
    def g_vars(self) -> Set[Var]:
        return self.polarity.g_vars

    def total_sep_count(self) -> int:
        return sum(c.sep_count for c in self.classes)


def analyze_separation(
    f_sep: Formula, positive_equality: bool = True
) -> SeparationAnalysis:
    """Run steps 1–4 of §4 on an application-free formula.

    ``positive_equality=False`` disables the V_p optimisation (every
    symbolic constant is treated as general); the lazy and SVC-style
    baseline solvers use this mode because the original tools had no such
    analysis.
    """
    polarity = analyze_polarity(f_sep)
    if not positive_equality:
        polarity.g_vars = polarity.g_vars | polarity.p_vars
        polarity.p_vars = set()
    pushed = push_offsets(f_sep)

    atoms = [n for n in iter_dag(pushed) if isinstance(n, (Eq, Lt))]
    atoms.sort(key=lambda a: a.uid)

    p_vars = polarity.p_vars
    union = DisjointSet(polarity.g_vars)

    # Per-atom ground leaves, split into g-bases and p-bases.
    atom_leaves: Dict[Formula, Tuple[List, List]] = {}
    for atom in atoms:
        g_bases: List[Tuple[Var, int]] = []
        p_bases: List[Tuple[Var, int]] = []
        for side in (atom.lhs, atom.rhs):
            for ground in ground_terms_of(side):
                base, k = split_ground(ground)
                if base in p_vars:
                    p_bases.append((base, k))
                else:
                    g_bases.append((base, k))
        atom_leaves[atom] = (g_bases, p_bases)
        union.union_all(base for base, _ in g_bases)

    # Materialise the classes.
    groups = union.groups()
    classes: List[VarClass] = []
    class_of: Dict[Var, VarClass] = {}
    for index, group in enumerate(groups):
        vclass = VarClass(index=index, vars=list(group))
        classes.append(vclass)
        for var in group:
            class_of[var] = vclass

    # Domain bounds u(v) / l(v) from every ground leaf in the formula.
    for atom in atoms:
        g_bases, p_bases = atom_leaves[atom]
        for base, k in g_bases:
            vclass = class_of[base]
            vclass.upper[base] = max(vclass.upper.get(base, 0), k)
            vclass.lower[base] = min(vclass.lower.get(base, 0), k)
            vclass.max_span = max(vclass.max_span, abs(k))
        if g_bases:
            vclass = class_of[g_bases[0][0]]
            for base, k in p_bases:
                if base not in vclass.p_leaves:
                    vclass.p_leaves.append(base)
                vclass.max_span = max(vclass.max_span, abs(k))

    for vclass in classes:
        vclass.range_size = sum(
            vclass.upper.get(v, 0) - vclass.lower.get(v, 0) + 1
            for v in vclass.vars
        )

    # SepCnt: per atom, the product of the two sides' ground-term counts
    # (paper §4 step 4 — an upper bound on per-constraint predicates).
    atom_class: Dict[Formula, Optional[VarClass]] = {}
    for atom in atoms:
        g_bases, _ = atom_leaves[atom]
        if not g_bases:
            atom_class[atom] = None  # pure-p atom: encoded as a constant
            continue
        vclass = class_of[g_bases[0][0]]
        atom_class[atom] = vclass
        vclass.sep_count += leaf_count(atom.lhs) * leaf_count(atom.rhs)
        if isinstance(atom, Lt):
            vclass.has_inequality = True
        if any(k != 0 for _, k in g_bases) or any(
            k != 0 for _, k in atom_leaves[atom][1]
        ):
            vclass.has_offset = True

    # Tighter bound for equality-only classes: with no offsets and no
    # inequalities, the per-constraint encoding allocates at most one
    # Boolean variable per *pair* of class constants, so C(n, 2) caps the
    # predicate count regardless of how many ITE ground-term pairs the
    # per-atom products counted.  (Still an upper bound in the paper's
    # sense — just without the double counting the paper's own footnote
    # acknowledges.)
    for vclass in classes:
        if not (vclass.has_inequality or vclass.has_offset):
            n = len(vclass.vars)
            vclass.sep_count = min(vclass.sep_count, n * (n - 1) // 2)

    return SeparationAnalysis(
        original=f_sep,
        pushed=pushed,
        polarity=polarity,
        classes=classes,
        class_of=class_of,
        atom_class=atom_class,
    )
