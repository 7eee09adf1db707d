#!/usr/bin/env python
"""Quickstart: build SUF formulas and decide them with every procedure.

Covers the whole public surface in a few minutes of reading:

* building formulas with :mod:`repro.logic.builders`;
* the three eager encodings (SD, EIJ, HYBRID) via ``check_validity``;
* the lazy (CVC-style) and case-splitting (SVC-style) baselines, the
  first by its engine name through :mod:`repro.engine.registry`;
* inspecting statistics and counterexamples.

Run:  python examples/quickstart.py
"""

from repro import check_validity, pretty
from repro.engine import registry
from repro.logic import builders as b
from repro.solvers.svclike import check_validity_svc


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Functional consistency: the bread and butter of EUF reasoning.
    # ------------------------------------------------------------------
    x, y = b.const("x"), b.const("y")
    f = b.func("f")
    consistency = b.implies(b.eq(x, y), b.eq(f(x), f(y)))
    print("formula:", pretty(consistency))
    for method in ("hybrid", "sd", "eij"):
        result = check_validity(consistency, method=method)
        print(
            "  %-7s -> %-7s (%.4fs, %d CNF clauses)"
            % (
                method,
                result.status,
                result.stats.total_seconds,
                result.stats.counter("cnf", "clauses"),
            )
        )

    # ------------------------------------------------------------------
    # 2. Separation predicates: ordering with +-1 arithmetic.
    # ------------------------------------------------------------------
    i, n = b.const("i"), b.const("n")
    loop_step = b.implies(
        b.band(b.lt(i, n), b.eq(b.const("i2"), b.succ(i))),
        b.le(b.const("i2"), n),
    )
    print("\nformula:", pretty(loop_step))
    print("  hybrid ->", check_validity(loop_step).status)

    # ------------------------------------------------------------------
    # 3. An invalid formula and its countermodel.
    # ------------------------------------------------------------------
    claim = b.implies(b.le(x, y), b.lt(x, y))  # <= does not imply <
    result = check_validity(claim)
    print("\nformula:", pretty(claim))
    print("  hybrid ->", result.status)
    model = result.counterexample
    print(
        "  countermodel: x = %d, y = %d"
        % (model.vars["x"], model.vars["y"])
    )

    # ------------------------------------------------------------------
    # 4. The baseline procedures give the same answers.
    # ------------------------------------------------------------------
    for name, solver in (
        ("lazy (CVC-style)", registry.get("lazy").decide),
        ("split (SVC-style)", check_validity_svc),
    ):
        print(
            "  %-18s consistency=%s, claim=%s"
            % (
                name,
                solver(consistency).status,
                solver(claim).status,
            )
        )


if __name__ == "__main__":
    main()
