"""Shared test utilities: random SUF formula generation and oracles."""

from __future__ import annotations

import random
from typing import List, Optional

from repro.logic import builders as b
from repro.logic.terms import And, BoolVar, Formula, Lt, Offset, Or, Term, Var


def random_term(rng: random.Random, vars_, funcs, depth: int) -> Term:
    if depth == 0 or rng.random() < 0.4:
        term = rng.choice(vars_)
    else:
        choice = rng.random()
        if choice < 0.4 and funcs:
            func = rng.choice(funcs)
            term = func(random_term(rng, vars_, funcs, depth - 1))
        elif choice < 0.7:
            term = b.ite(
                random_formula(rng, vars_, funcs, [], depth - 1),
                random_term(rng, vars_, funcs, depth - 1),
                random_term(rng, vars_, funcs, depth - 1),
            )
        else:
            term = random_term(rng, vars_, funcs, depth - 1)
    if rng.random() < 0.4:
        term = b.offset(term, rng.randint(-2, 2))
    return term


def random_formula(rng: random.Random, vars_, funcs, bools, depth: int) -> Formula:
    if depth == 0 or rng.random() < 0.35:
        choice = rng.random()
        if choice < 0.45 or (choice >= 0.8 and not bools):
            return b.eq(
                random_term(rng, vars_, funcs, depth),
                random_term(rng, vars_, funcs, depth),
            )
        if choice < 0.8:
            return b.lt(
                random_term(rng, vars_, funcs, depth),
                random_term(rng, vars_, funcs, depth),
            )
        return rng.choice(bools)
    choice = rng.random()
    if choice < 0.25:
        return b.bnot(random_formula(rng, vars_, funcs, bools, depth - 1))
    if choice < 0.5:
        return b.band(
            random_formula(rng, vars_, funcs, bools, depth - 1),
            random_formula(rng, vars_, funcs, bools, depth - 1),
        )
    if choice < 0.75:
        return b.bor(
            random_formula(rng, vars_, funcs, bools, depth - 1),
            random_formula(rng, vars_, funcs, bools, depth - 1),
        )
    if choice < 0.9:
        return b.implies(
            random_formula(rng, vars_, funcs, bools, depth - 1),
            random_formula(rng, vars_, funcs, bools, depth - 1),
        )
    return b.iff(
        random_formula(rng, vars_, funcs, bools, depth - 1),
        random_formula(rng, vars_, funcs, bools, depth - 1),
    )


def random_suf_formula(
    seed: int,
    max_vars: int = 3,
    max_funcs: int = 2,
    max_bools: int = 1,
    depth: Optional[int] = None,
) -> Formula:
    """A deterministic random SUF formula for cross-method testing."""
    rng = random.Random(seed)
    vars_ = [b.const("v%d" % i) for i in range(rng.randint(1, max_vars))]
    funcs = [b.func("f"), b.func("g")][: rng.randint(0, max_funcs)]
    bools = [b.bconst("P"), b.bconst("Q")][: rng.randint(0, max_bools)]
    if depth is None:
        depth = rng.randint(1, 3)
    return random_formula(rng, vars_, funcs, bools, depth)


def random_sep_formula(seed: int, max_vars: int = 4, depth: int = 3) -> Formula:
    """A random application-free separation-logic formula."""
    rng = random.Random(seed)
    vars_ = [b.const("s%d" % i) for i in range(rng.randint(1, max_vars))]
    return random_formula(rng, vars_, [], [b.bconst("B")], depth)


def prefix_chain(steps: int) -> List[Formula]:
    """A growing chain of difference constraints, one formula per link.

    Link ``i`` puts ``x_i`` below ``x_{i+1}`` (with a varying offset and
    a guarded slack disjunct, so each link carries both theory and
    boolean structure); the last link closes the chain into a negative
    cycle.  Every proper prefix is satisfiable and the whole chain is
    not.
    """
    xs = [Var("pf_x%d" % i) for i in range(steps)]
    chain: List[Formula] = [
        And(
            Lt(Offset(xs[i], i % 3), xs[i + 1]),
            Or(BoolVar("pf_b%d" % i), Lt(xs[i], Offset(xs[i + 1], 4))),
        )
        for i in range(steps - 1)
    ]
    chain.append(Lt(xs[-1], xs[0]))
    return chain
