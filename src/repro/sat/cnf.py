"""CNF container shared by the Tseitin transform and the SAT solver.

Variables are positive integers ``1..num_vars``.  Since PR 7 the
container stores clauses in a **flat packed arena**: one ``array('i')``
of int-packed literals plus one ``array('i')`` of clause start offsets.
A literal is packed as ``2v`` (positive) or ``2v + 1`` (negative), so

* negation is ``lit ^ 1``,
* the variable is ``lit >> 1``,
* value/watch tables index directly by literal with no sign branch.

The packed convention is shared by the Tseitin encoder (which emits
packed clauses natively), the preprocessor, the DIMACS serializer and
the arena CDCL solver (which bulk-attaches straight from
:meth:`Cnf.packed_arrays`).  Signed DIMACS literals remain the *external*
vocabulary: :meth:`add_clause` accepts them (packing once on insert) and
the :attr:`clauses` property materializes a signed view for tests,
debugging, and external tools.

The container also tracks a name table mapping solver variables back to
the :class:`~repro.logic.terms.BoolVar` (or other label) they encode,
which the decision procedures use to decode counterexamples.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Cnf",
    "pack_literal",
    "unpack_literal",
    "pack_clause",
    "unpack_clause",
]


def pack_literal(lit: int) -> int:
    """Signed DIMACS literal -> packed key (``2v`` pos, ``2v + 1`` neg)."""
    return (lit << 1) if lit > 0 else ((-lit) << 1) | 1


def unpack_literal(lit: int) -> int:
    """Packed key -> signed DIMACS literal."""
    return -(lit >> 1) if lit & 1 else (lit >> 1)


def pack_clause(lits: Iterable[int]) -> List[int]:
    return [(q << 1) if q > 0 else ((-q) << 1) | 1 for q in lits]


def unpack_clause(lits: Iterable[int]) -> List[int]:
    return [-(q >> 1) if q & 1 else (q >> 1) for q in lits]


class Cnf:
    """A growable CNF formula over a flat packed-literal arena."""

    def __init__(self) -> None:
        self.num_vars: int = 0
        #: Flat packed literals of every clause, concatenated.
        self._lits: array = array("i")
        #: Clause boundaries: clause ``i`` is ``_lits[_starts[i]:_starts[i+1]]``.
        self._starts: array = array("i", [0])
        self.names: Dict[int, object] = {}
        self._by_name: Dict[object, int] = {}

    # -- variables -----------------------------------------------------------

    def new_var(self, name: object = None) -> int:
        """Allocate a fresh variable, optionally labelled with ``name``."""
        self.num_vars += 1
        var = self.num_vars
        if name is not None:
            self.names[var] = name
            self._by_name[name] = var
        return var

    def var_for(self, name: object) -> int:
        """Variable labelled ``name``, allocating it on first use."""
        var = self._by_name.get(name)
        if var is None:
            var = self.new_var(name)
        return var

    def lookup(self, name: object) -> Optional[int]:
        """Variable labelled ``name`` if it exists, else ``None``."""
        return self._by_name.get(name)

    def ensure_vars(self, num_vars: int) -> None:
        """Declare variables ``1..num_vars`` allocated.

        Max-var tracking for bulk inserts: raises nothing and never
        shrinks — callers that know the largest variable in a clause
        batch declare it once instead of paying per-literal checks.
        """
        if num_vars > self.num_vars:
            self.num_vars = num_vars

    # -- signed (DIMACS) insertion paths -------------------------------------

    def add_clause(self, lits: Iterable[int]) -> None:
        """Append a clause of signed literals after validating each one.

        This is the safe path for externally-supplied clauses (DIMACS
        input, tests).  Encoders that generate literals from variables
        they just allocated should use the unchecked/packed inserts —
        the per-literal loop here dominates CNF construction time on
        large encodings.  Either way the clause is packed exactly once.
        """
        clause = list(lits)
        num_vars = self.num_vars
        for lit in clause:
            if lit == 0:
                raise ValueError("0 is not a literal")
            if (lit if lit > 0 else -lit) > num_vars:
                raise ValueError(
                    "literal %d references unallocated variable" % lit
                )
        self._lits.extend(
            (q << 1) if q > 0 else ((-q) << 1) | 1 for q in clause
        )
        self._starts.append(len(self._lits))

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    def add_clause_unchecked(self, clause: Sequence[int]) -> None:
        """Append a signed clause without validation (bulk insert).

        The caller guarantees every literal is nonzero and references an
        allocated variable (allocate with :meth:`new_var` or declare in
        bulk with :meth:`ensure_vars`).  The literals are packed into the
        arena; the input list is not retained.
        """
        self._lits.extend(
            (q << 1) if q > 0 else ((-q) << 1) | 1 for q in clause
        )
        self._starts.append(len(self._lits))

    def add_clauses_unchecked(self, clauses: Iterable[Sequence[int]]) -> None:
        """Bulk :meth:`add_clause_unchecked`."""
        lits = self._lits
        starts = self._starts
        for clause in clauses:
            lits.extend(
                (q << 1) if q > 0 else ((-q) << 1) | 1 for q in clause
            )
            starts.append(len(lits))

    # -- packed insertion paths (the hot path) -------------------------------

    def add_packed_clause(self, clause: Sequence[int]) -> None:
        """Append a clause of already-packed literals (no conversion)."""
        self._lits.extend(clause)
        self._starts.append(len(self._lits))

    def add_packed_clauses(self, clauses: Iterable[Sequence[int]]) -> None:
        lits = self._lits
        starts = self._starts
        for clause in clauses:
            lits.extend(clause)
            starts.append(len(lits))

    # -- reading -------------------------------------------------------------

    @property
    def literal_count(self) -> int:
        return len(self._lits)

    def packed_arrays(self) -> Tuple[array, array]:
        """The raw ``(literals, starts)`` arrays (shared, do not mutate).

        This is the solver's bulk-attach path: clause ``i`` occupies
        ``literals[starts[i]:starts[i + 1]]``.
        """
        return self._lits, self._starts

    def packed(self, index: int) -> List[int]:
        """Clause ``index`` as a list of packed literals."""
        return self._lits[self._starts[index] : self._starts[index + 1]].tolist()

    def signed(self, index: int) -> List[int]:
        """Clause ``index`` as a list of signed DIMACS literals."""
        return unpack_clause(self.packed(index))

    def iter_packed(self) -> Iterator[List[int]]:
        """Iterate clauses as packed-literal lists."""
        lits = self._lits
        starts = self._starts
        for i in range(len(starts) - 1):
            yield lits[starts[i] : starts[i + 1]].tolist()

    @property
    def clauses(self) -> List[List[int]]:
        """Signed-literal view of every clause (materialized copy).

        Compatibility/debug surface: mutating the returned lists does not
        write back into the arena.  Hot paths should use
        :meth:`packed_arrays` / :meth:`iter_packed` instead.
        """
        lits = self._lits
        starts = self._starts
        return [
            unpack_clause(lits[starts[i] : starts[i + 1]])
            for i in range(len(starts) - 1)
        ]

    @clauses.setter
    def clauses(self, value: Iterable[Sequence[int]]) -> None:
        self._lits = array("i")
        self._starts = array("i", [0])
        self.add_clauses_unchecked(value)

    def __len__(self) -> int:
        return len(self._starts) - 1

    def __repr__(self) -> str:
        return "Cnf(num_vars=%d, clauses=%d)" % (
            self.num_vars,
            len(self._starts) - 1,
        )
