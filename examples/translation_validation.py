#!/usr/bin/env python
"""Translation validation — the paper's software-verification use case.

A "compiler" rewrites an expression (renames inputs, swaps ITE branches
with negated conditions, refolds offset chains); the validator proves the
source and target equivalent given equal inputs.  A miscompiled variant
(an off-by-one in an address offset) is detected, and the parser/printer
round-trip shows how obligations can be exchanged as text.

Run:  python examples/translation_validation.py
"""

from repro import check_validity, parse_formula, to_sexpr
from repro.benchgen.transval import make_transval
from repro.logic import builders as b


def main() -> None:
    # ------------------------------------------------------------------
    # A hand-written validation obligation.
    # ------------------------------------------------------------------
    xs, xt = b.const("x_src"), b.const("x_tgt")
    ys, yt = b.const("y_src"), b.const("y_tgt")
    op = b.func("op")

    source = b.ite(b.eq(xs, ys), op(xs, b.succ(ys)), op(ys, xs))
    target = b.ite(
        b.bnot(b.eq(xt, yt)),  # branch swap with negated condition
        op(yt, xt),
        op(xt, b.offset(yt, 1)),  # succ refolded as +1
    )
    obligation = b.implies(
        b.band(b.eq(xs, xt), b.eq(ys, yt)),
        b.eq(source, target),
    )
    result = check_validity(obligation)
    print("hand-written obligation:", result.status)
    assert result.valid

    # Textual exchange: print, re-parse, re-check.
    text = to_sexpr(obligation)
    print("as s-expression (%d chars)" % len(text))
    assert check_validity(parse_formula(text)).valid

    # ------------------------------------------------------------------
    # Generated obligations at increasing size.
    # ------------------------------------------------------------------
    print("\ngenerated obligations:")
    for size in (2, 3, 4):
        bench = make_transval(size=size, inputs=4, seed=size)
        result = check_validity(bench.formula)
        assert result.valid
        print(
            "  size=%d: %d DAG nodes, %-7s %.3fs"
            % (
                size,
                bench.dag_size,
                result.status,
                result.stats.total_seconds,
            )
        )

    # ------------------------------------------------------------------
    # Miscompilation: the dropped +1 is caught with a concrete input.
    # ------------------------------------------------------------------
    bad = make_transval(size=3, inputs=3, seed=11, valid=False)
    result = check_validity(bad.formula)
    assert not result.valid
    model = result.counterexample
    inputs = {
        name: value
        for name, value in sorted(model.vars.items())
        if name.startswith("x")
    }
    print("\nmiscompiled variant: %s" % result.status)
    print("  failing input assignment: %s" % inputs)


if __name__ == "__main__":
    main()
