"""Rendering and claim tests for the figure drivers, on synthetic rows.

These exercise the table/scatter code paths and every claim each figure
checks, holding and failing, without running any solver.
"""

import pytest

from repro.experiments import fig2, fig3, fig4, fig5, fig6
from repro.experiments.runner import RunRow

FAIL = "TRANSLATION_LIMIT"


def row(name, procedure, seconds, status="VALID", sep=10, **kw):
    return RunRow(
        benchmark=name,
        domain=kw.get("domain", "pipeline"),
        procedure=procedure,
        status=status,
        total_seconds=seconds,
        encode_seconds=seconds / 4,
        sat_seconds=seconds / 2,
        cnf_clauses=kw.get("cnf", 1000),
        conflict_clauses=kw.get("conflicts", 50),
        sep_predicates=sep,
        dag_size=kw.get("nodes", 100),
    )


def verdicts(claims):
    return [claim.holds for claim in claims]


def fig2_rows(eij_conflicts):
    return [
        fig2.Fig2Row(
            benchmark="b%d" % i,
            sd=row("b%d" % i, "SD", 2.0, conflicts=500),
            eij=row("b%d" % i, "EIJ", 0.3, cnf=4000, conflicts=c),
        )
        for i, c in enumerate(eij_conflicts)
    ]


class TestFig2Render:
    def test_table_and_claim(self):
        rows = fig2_rows([20, 20, 20])
        text = fig2.render_fig2(rows)
        assert "FIG2" in text
        assert "b0" in text
        (claim,) = fig2.claims(rows)
        assert claim.holds and claim.measured == "3/3"
        assert str(claim).endswith("(bound >= 2) holds")

    def test_claim_fails_below_half(self):
        (claim,) = fig2.claims(fig2_rows([20, 900, 900]))
        assert not claim.holds and claim.measured == "1/3"
        assert str(claim).endswith("FAILS")

    def test_claim_fails_on_no_decided_row(self):
        assert verdicts(fig2.claims([])) == [False]

    def test_timeouts_rendered(self):
        rows = [
            fig2.Fig2Row(
                benchmark="slow",
                sd=row("slow", "SD", 30.0, status="TIMEOUT"),
                eij=row("slow", "EIJ", 0.3),
            )
        ]
        text = fig2.render_fig2(rows)
        assert "timeout" in text


def fig3_points(eij_seconds, blown=True):
    """EIJ's time grows with SepCnt; ``blown`` adds a translation failure
    at the largest count."""
    points = [
        fig3.Fig3Point(
            benchmark="p%d" % i,
            sep_predicates=10 * (i + 1),
            sd=row("p%d" % i, "SD", 1.0),
            eij=row("p%d" % i, "EIJ", seconds, sep=10 * (i + 1)),
        )
        for i, seconds in enumerate(eij_seconds)
    ]
    if blown:
        points.append(
            fig3.Fig3Point(
                benchmark="blown",
                sep_predicates=500,
                sd=row("blown", "SD", 3.0, sep=500),
                eij=row("blown", "EIJ", 20.0, status=FAIL, sep=500),
            )
        )
    return points


class TestFig3Render:
    def test_scatter_and_correlation(self):
        points = fig3_points([0.1 * (i + 1) ** 2 for i in range(6)])
        text = fig3.render_fig3(points, timeout=20.0)
        assert "timeout" in text
        assert "legend" in text
        rho, failures = fig3.claims(points, timeout=20.0)
        assert rho.holds and rho.measured == "1.00"
        assert failures.holds and failures.measured == "1/7"

    def test_rho_claim_fails_without_correlation(self):
        points = fig3_points([3.0, 2.5, 2.0, 1.5, 1.0, 0.5], blown=False)
        rho, failures = fig3.claims(points, timeout=20.0)
        assert not rho.holds and rho.measured == "-1.00"
        assert not failures.holds and failures.measured == "0/6"


def fig4_rows(hybrid_status="VALID", sd_fails=True, eij_fails=True):
    return [
        fig4.Fig4Row(
            benchmark="n%d" % i,
            hybrid=row("n%d" % i, "HYBRID", 0.5, status=hybrid_status),
            sd=row(
                "n%d" % i,
                "SD",
                2.0,
                status="TIMEOUT" if sd_fails and i == 1 else "VALID",
            ),
            eij=row(
                "n%d" % i,
                "EIJ",
                0.2,
                status=FAIL if eij_fails and i == 0 else "VALID",
            ),
        )
        for i in range(4)
    ]


class TestFig4Render:
    def test_summary_lines(self):
        rows = fig4_rows()
        text = fig4.render_fig4(rows, timeout=20.0)
        assert "best HYBRID speedup over SD: 4.0x" in text
        assert "best HYBRID speedup over EIJ: 0.4x" in text
        assert verdicts(fig4.claims(rows)) == [True, True]
        assert fig4.claims(rows)[1].measured == "SD 1/4, EIJ 1/4"

    @pytest.mark.parametrize(
        "kw, expected",
        [
            ({"hybrid_status": "TIMEOUT"}, [False, True]),
            ({"sd_fails": False}, [True, False]),
            ({"eij_fails": False}, [True, False]),
        ],
    )
    def test_claims_fail(self, kw, expected):
        assert verdicts(fig4.claims(fig4_rows(**kw))) == expected


def fig5_rows(sd="VALID", eij=FAIL, hybrid_default=FAIL):
    """Two invariant rows; the second one's statuses are the arguments."""
    return [
        fig5.Fig5Row(
            benchmark="inv%d" % i,
            hybrid=row("inv%d" % i, "HYBRID", 3.0),
            hybrid_default=row(
                "inv%d" % i, "HYBRID", 20.0, status=hybrid_default if i else FAIL
            ),
            sd=row("inv%d" % i, "SD", 2.0, status=sd if i else "VALID"),
            eij=row("inv%d" % i, "EIJ", 20.0, status=eij if i else FAIL),
        )
        for i in range(2)
    ]


class TestFig5Render:
    def test_counts(self):
        rows = fig5_rows()
        assert "HYBRID(30)" in fig5.render_fig5(rows, timeout=20.0)
        claims = fig5.claims(rows)
        assert verdicts(claims) == [True, True, True]
        assert [c.measured for c in claims] == ["2/2", "2/2", "2/2"]

    @pytest.mark.parametrize(
        "kw, expected",
        [
            ({"sd": "TIMEOUT"}, [False, True, True]),
            ({"eij": "VALID"}, [True, False, True]),
            ({"hybrid_default": "VALID"}, [True, True, False]),
        ],
    )
    def test_claims_fail(self, kw, expected):
        assert verdicts(fig5.claims(fig5_rows(**kw))) == expected


def fig6_rows(hybrid_status="VALID", svc_seconds=20.0, cvc_seconds=1.5):
    """Four rows; on the last three the baselines take the given times
    (SVC times out at 20 s), and HYBRID's status applies to the second."""
    return [
        fig6.Fig6Row(
            benchmark="m%d" % i,
            hybrid=row(
                "m%d" % i,
                "HYBRID",
                0.4,
                status=hybrid_status if i == 1 else "VALID",
            ),
            svc=row(
                "m%d" % i,
                "SVC(split)",
                svc_seconds if i else 0.1,
                status="TIMEOUT" if i and svc_seconds >= 20.0 else "VALID",
            ),
            cvc=row("m%d" % i, "CVC(lazy)", cvc_seconds if i else 0.1),
            hybrid_lazy=row("m%d" % i, "HYBRID+LAZY", 0.05),
        )
        for i in range(4)
    ]


class TestFig6Render:
    def test_summary(self):
        rows = fig6_rows()
        text = fig6.render_fig6(rows, timeout=20.0)
        assert "SVC" in text and "CVC" in text
        assert "HYBRID+LAZY" in text
        assert "timeout" in text
        assert "best HYBRID speedup over CVC(lazy): 3.8x" in text
        claims = fig6.claims(rows)
        assert verdicts(claims) == [True, True, True]
        assert [c.measured for c in claims] == ["4/4", "3/4", "3/4"]

    def test_margin_forgives_timing_noise(self):
        # HYBRID at 0.4 s against a baseline at 0.36 s is within 0.05 s.
        claims = fig6.claims(fig6_rows(svc_seconds=0.36, cvc_seconds=0.36))
        assert verdicts(claims) == [True, True, True]

    @pytest.mark.parametrize(
        "kw, expected",
        [
            ({"hybrid_status": "TIMEOUT"}, [False, True, True]),
            ({"svc_seconds": 0.3}, [True, False, True]),
            ({"cvc_seconds": 0.3}, [True, True, False]),
        ],
    )
    def test_claims_fail(self, kw, expected):
        assert verdicts(fig6.claims(fig6_rows(**kw))) == expected
