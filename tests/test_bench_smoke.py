"""The prefix-sharing chain, checked incrementally and from scratch.

A retired benchmark report used to time this workload; its verdicts
are checked here: every proper prefix is satisfiable, the whole chain is
not, one session re-checked after every link agrees with a fresh session
per prefix, and the final core is the whole chain.
"""

from helpers import prefix_chain

from repro.engine.session import SAT, UNSAT, Session
from repro.logic.semantics import evaluate
from repro.logic.terms import And


class TestPrefixSharingFamily:
    def test_every_proper_prefix_sat_full_family_unsat(self):
        family = prefix_chain(6)
        for end in range(1, len(family) + 1):
            session = Session(engine="hybrid", cache=None)
            try:
                for formula in family[:end]:
                    session.assert_formula(formula)
                result = session.check_sat()
            finally:
                session.close()
            expected = UNSAT if end == len(family) else SAT
            assert result.status == expected, "prefix of %d" % end


class TestIncrementalComparison:
    def test_verdicts_agree_and_core_spans_chain(self):
        # One session grows the chain and re-checks after each assert, so
        # learned clauses carry over from every prefix to the next.  The
        # scratch side is a fresh session per prefix, because the one-shot
        # engine path is about ten times slower on these conjunctions.
        chain = prefix_chain(40)
        statuses = []
        session = Session(engine="hybrid", cache=None)
        try:
            for link, formula in enumerate(chain, 1):
                session.assert_formula(formula)
                result = session.check_sat()
                scratch = Session(engine="hybrid", cache=None)
                try:
                    for prefix_formula in chain[:link]:
                        scratch.assert_formula(prefix_formula)
                    expected = scratch.check_sat().status
                finally:
                    scratch.close()
                assert result.status == expected, "prefix of %d" % link
                statuses.append(result.status)
                if link < len(chain):
                    assert evaluate(And(*chain[:link]), result.model)
        finally:
            session.close()
        assert statuses == [SAT] * (len(chain) - 1) + [UNSAT]
        # The negative cycle needs every link.
        assert set(result.core) == set(chain)
