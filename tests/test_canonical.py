"""Properties of the alpha-invariant canonical key (`logic/canonical`).

The key is the load-bearing wall of the result cache: two formulas share
a key iff the cache will serve one's verdict for the other.  The
properties below pin both directions and the countermodel-lifting path:

* alpha-renamed formulas share a key (completeness of the dedupe);
* key collisions never span semantically different formulas — whenever
  two generated formulas (including mutated ones) share a key, their
  verdicts and their behaviour under the reference semantics agree
  (soundness: the cache can never change a verdict);
* canonicalization is idempotent and process-stable (subprocess pin);
* lifting a countermodel of the canonical representative through the
  renaming map falsifies the original formula.
"""

import json
import random
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fuzz.generator import generate_formula
from repro.fuzz.oracle import _alpha_variant
from repro.logic.canonical import (
    CANONICAL_VERSION,
    canonical_key,
    canonicalize,
    lift_interpretation,
    rename_symbols,
)
from repro.logic.parser import parse_formula
from repro.logic.printer import to_sexpr
from repro.logic.semantics import evaluate
from repro.logic.terms import And, Eq, FuncApp, Var
from repro.logic.traversal import (
    collect_atoms,
    collect_bool_vars,
    collect_func_symbols,
    collect_pred_symbols,
    collect_vars,
)

from helpers import random_suf_formula

PROFILES = ("equality", "offset", "uf", "mixed")


def _profile_for(seed):
    return PROFILES[seed % len(PROFILES)]


def _random_renaming(formula, seed):
    """A random injective renaming over every symbol kind."""
    rng = random.Random(seed)

    def scramble(names, prefix):
        names = list(names)
        fresh = ["%s_%d" % (prefix, i) for i in range(len(names))]
        rng.shuffle(fresh)
        return dict(zip(names, fresh))

    return rename_symbols(
        formula,
        vars=scramble([v.name for v in collect_vars(formula)], "zz"),
        bools=scramble([v.name for v in collect_bool_vars(formula)], "pp"),
        funcs=scramble(collect_func_symbols(formula), "gg"),
        preds=scramble(collect_pred_symbols(formula), "qq"),
    )


class TestAlphaInvariance:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_renamed_formulas_share_key(self, seed):
        formula = generate_formula(seed, _profile_for(seed))
        renamed = _random_renaming(formula, seed * 31 + 7)
        assert canonical_key(formula) == canonical_key(renamed)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_helpers_generator_agrees(self, seed):
        formula = random_suf_formula(seed)
        renamed = _random_renaming(formula, seed + 1)
        assert canonical_key(formula) == canonical_key(renamed)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_canonicalize_is_idempotent(self, seed):
        formula = generate_formula(seed, _profile_for(seed))
        form = canonicalize(formula)
        again = canonicalize(form.formula)
        assert again.key == form.key
        assert again.text == form.text
        # The canonical representative of a canonical formula is itself.
        assert again.formula is form.formula

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_fuzz_alpha_variant_shares_key(self, seed):
        formula = generate_formula(seed, _profile_for(seed))
        assert canonical_key(formula) == canonical_key(
            _alpha_variant(formula)
        )

    def test_symmetric_eq_ties_follow_one_choice(self):
        # Refinement cannot tell v0 from v1, nor (f0 v0) from (f1 v1), so
        # both Eqs tie.  The variant's constants are interned in the
        # opposite order (its applications in the same order), so its
        # first Eq stores its children the other way round; the second
        # tie must follow the first choice, not stored order again.
        original = parse_formula(
            "(and (= tie_a tie_b) (= (tie_f tie_a) (tie_g tie_b)))"
        )
        d = Var("tie_d")
        c = Var("tie_c")
        variant = And(
            Eq(c, d), Eq(FuncApp("tie_h", (c,)), FuncApp("tie_k", (d,)))
        )
        assert c.uid > d.uid
        assert canonical_key(original) == canonical_key(variant)
        assert canonicalize(original).text == canonicalize(variant).text


def _mutate(formula, seed):
    """A structural mutation that usually changes semantics."""
    from repro.fuzz.rewrite import rebuild
    from repro.logic.terms import Formula, Not, Offset

    rng = random.Random(seed)
    atoms = collect_atoms(formula)
    choice = rng.randrange(3)
    if choice == 0 or not atoms:
        return Not(formula)
    target = rng.choice(atoms)
    if choice == 1:

        def flip(node):
            if node is target:
                return Not(node)
            return node

        return rebuild(formula, formula_fn=flip)

    def shift(node):
        if node is target and isinstance(node, Eq):
            return Eq(node.lhs, Offset(node.rhs, 1))
        return node

    return rebuild(formula, formula_fn=shift)


class TestKeyCollisionsPreserveVerdicts:
    """A shared key must never bridge formulas with different verdicts.

    The cache serves one formula's verdict for any other formula with
    the same key, so the correctness contract is exactly: key collision
    implies verdict agreement.  We cannot enumerate all collisions, so
    we hunt for violations — independently generated formulas, and
    formulas against semantics-changing mutations of themselves (the
    pairs most likely to be structurally close).  Whenever a pair shares
    a key, the decision procedure must give both the same verdict.
    """

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much],
    )
    @given(
        seed=st.integers(min_value=0, max_value=5_000),
        other=st.integers(min_value=0, max_value=5_000),
    )
    def test_generated_pair_collision_implies_same_verdict(
        self, seed, other
    ):
        from repro.engine import registry

        f = generate_formula(seed, _profile_for(seed))
        g = generate_formula(other, _profile_for(other))
        if canonical_key(f) == canonical_key(g):
            engine = registry.get("hybrid")
            assert engine.decide(f).valid == engine.decide(g).valid

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=5_000))
    def test_mutation_changes_key_or_preserves_verdict(self, seed):
        from repro.engine import registry

        f = generate_formula(seed, _profile_for(seed))
        g = _mutate(f, seed * 37 + 5)
        if canonical_key(f) == canonical_key(g):
            engine = registry.get("hybrid")
            assert engine.decide(f).valid == engine.decide(g).valid

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=5_000))
    def test_negation_always_changes_key(self, seed):
        from repro.logic.terms import Not

        f = generate_formula(seed, _profile_for(seed))
        assert canonical_key(f) != canonical_key(Not(f))


class TestMutationsChangeKey:
    def test_operand_swap_on_implies(self):
        f = parse_formula("(=> (= x y) (= (f x) (f y)))")
        g = parse_formula("(=> (= (f x) (f y)) (= x y))")
        assert canonical_key(f) != canonical_key(g)

    def test_offset_constant_matters(self):
        f = parse_formula("(= x (+ y 1))")
        g = parse_formula("(= x (+ y 2))")
        assert canonical_key(f) != canonical_key(g)

    def test_polarity_matters(self):
        f = parse_formula("(and (= x y) (< x z))")
        g = parse_formula("(and (not (= x y)) (< x z))")
        assert canonical_key(f) != canonical_key(g)

    def test_variable_sharing_pattern_matters(self):
        # Same shape, different sharing: x=y & y<z  vs  x=y & x<z are
        # related by renaming, but x=y & y<y is not.
        f = parse_formula("(and (= x y) (< y z))")
        g = parse_formula("(and (= x y) (< y y))")
        h = parse_formula("(and (= a b) (< b c))")
        assert canonical_key(f) != canonical_key(g)
        assert canonical_key(f) == canonical_key(h)

    def test_eq_argument_order_is_canonical(self):
        # Eq is symmetric; hash-consing may store either orientation
        # depending on interning order, which the key must not leak.
        x, y = Var("x"), Var("y")
        assert canonical_key(Eq(x, y)) == canonical_key(Eq(y, x))


class TestCountermodelLifting:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_lifted_countermodel_falsifies_original(self, seed):
        from repro.engine import registry

        formula = generate_formula(seed, _profile_for(seed))
        form = canonicalize(formula)
        outcome = registry.get("hybrid").decide(form.formula)
        if outcome.valid is False and outcome.counterexample is not None:
            assert evaluate(form.formula, outcome.counterexample) is False
            lifted = lift_interpretation(outcome.counterexample, form)
            assert evaluate(formula, lifted) is False


class TestRenameSymbols:
    def test_rejects_non_injective_var_map(self):
        f = parse_formula("(= x y)")
        with pytest.raises(ValueError):
            rename_symbols(f, vars={"x": "z", "y": "z"})

    def test_rejects_non_injective_func_map(self):
        f = parse_formula("(= (f x) (g x))")
        with pytest.raises(ValueError):
            rename_symbols(f, funcs={"f": "h", "g": "h"})

    def test_identity_rename_is_same_node(self):
        f = parse_formula("(=> (= x y) (= (f x) (f y)))")
        assert rename_symbols(f) is f


class TestProcessStability:
    """The key must be identical across interpreter processes.

    uid-based interning order differs between processes depending on
    import/evaluation order, and PYTHONHASHSEED randomises str hashes —
    neither may leak into the key (the disk cache tier and the serve
    protocol both rely on this).
    """

    def test_key_stable_across_subprocess(self):
        formulas = [
            "(=> (= x y) (= (f x) (f y)))",
            "(and (or B0 (= v0 (+ v1 2))) (not (< v1 v0)))",
            "(iff (P (g a)) (= a b))",
        ]
        parent = {
            text: canonical_key(parse_formula(text)) for text in formulas
        }
        script = (
            "import json, sys\n"
            "from repro.logic.canonical import canonical_key\n"
            "from repro.logic.parser import parse_formula\n"
            "texts = json.load(sys.stdin)\n"
            # Parse in reverse, so interning (uid) order differs from the
            # parent process on purpose.
            "keys = {}\n"
            "for t in reversed(texts):\n"
            "    keys[t] = canonical_key(parse_formula(t))\n"
            "print(json.dumps(keys))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            input=json.dumps(formulas),
            capture_output=True,
            text=True,
            check=True,
        )
        child = json.loads(out.stdout)
        assert child == parent

    def test_version_is_part_of_the_digest(self):
        # Changing CANONICAL_VERSION must change every key; pin the
        # binding so a version bump cannot silently be a no-op.
        import hashlib

        f = parse_formula("(= x y)")
        form = canonicalize(f)
        expected = hashlib.sha256(
            ("suf-canonical-v%d\n%s" % (CANONICAL_VERSION, form.text)).encode()
        ).hexdigest()
        assert form.key == expected

    def test_generator_formulas_stable_across_subprocess(self):
        seeds = [3, 17, 91]
        texts = [
            to_sexpr(generate_formula(seed, _profile_for(seed)))
            for seed in seeds
        ]
        parent = [canonical_key(parse_formula(t)) for t in texts]
        script = (
            "import json, sys\n"
            "from repro.logic.canonical import canonical_key\n"
            "from repro.logic.parser import parse_formula\n"
            "texts = json.load(sys.stdin)\n"
            "print(json.dumps([canonical_key(parse_formula(t)) "
            "for t in texts]))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            input=json.dumps(texts),
            capture_output=True,
            text=True,
            check=True,
        )
        assert json.loads(out.stdout) == parent


class TestBenchmarkKeyUnification:
    def test_benchmark_canonical_key_uses_shared_helper(self):
        from repro.benchgen.suite import benchmark_by_name

        bench = benchmark_by_name("pipeline_s2_r2_1")
        assert bench is not None
        assert bench.canonical_key == canonical_key(bench.formula)
