"""SMT-COMP-style evaluation runner behind ``repro compete``.

Sweeps one or more benchmark directories of SMT-LIB 2 scripts through
registry engines (any method, including ``portfolio``, ``cube`` and
``cached``) with a per-instance wall-clock budget, checks every verdict
against the instance's ``(set-info :status ...)`` annotation, and scores
the sweep the way SMT-COMP does:

* per-instance verdict (``sat`` / ``unsat`` / ``unknown`` / ``timeout``
  / ``error``) and wall time;
* solved / mismatch counts, aggregated globally and per family (a
  family is the instance's directory);
* the PAR-2 score: solved instances contribute their wall time,
  unsolved ones twice the budget.

The report is a plain-JSON artifact; the CLI writes it only when given
``--out FILE``, and CI uploads the one ``make compete-smoke`` writes.

Correctness framing: a *mismatch* — a decided verdict that contradicts
the instance's ``:status`` — is a soundness bug in either the engine or
the annotation and always fails the sweep.  ``error`` covers both
malformed scripts and out-of-fragment constructs
(:class:`~repro.logic.smtlib.UnsupportedLogicError`); external corpora
legitimately contain those, so errors only fail under
``fail_on_error=True`` (the self-hosted smoke corpus runs that way).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.status import Status
from ..encodings.hybrid import DEFAULT_SEP_THOLD
from ..logic.smtlib import (
    SmtLibError,
    SmtScript,
    UnsupportedLogicError,
    parse_smtlib,
)
from ..logic.terms import Formula, Not
from . import registry
from .contract import SolveRequest

__all__ = [
    "CompeteConfig",
    "InstanceRun",
    "discover_instances",
    "run_compete",
    "format_table",
    "write_report",
]

DEFAULT_TIMEOUT = 10.0

#: Verdicts that count as solved (and into the PAR-2 numerator).
_SOLVED = ("sat", "unsat")


@dataclass
class CompeteConfig:
    """One sweep: roots, engine methods, and the per-instance budget."""

    roots: List[str]
    methods: List[str] = field(default_factory=lambda: ["hybrid"])
    timeout: float = DEFAULT_TIMEOUT
    sep_thold: int = DEFAULT_SEP_THOLD
    fail_on_error: bool = False


@dataclass
class InstanceRun:
    """One (instance, method) result row."""

    name: str
    family: str
    expected: Optional[str]
    verdict: str  # sat | unsat | unknown | timeout | error
    wall_seconds: float
    detail: str = ""

    @property
    def solved(self) -> bool:
        return self.verdict in _SOLVED

    @property
    def mismatch(self) -> bool:
        """A decided verdict contradicting a decided ``:status``."""
        return (
            self.expected in _SOLVED
            and self.solved
            and self.verdict != self.expected
        )


def discover_instances(roots: List[str]) -> List[Tuple[str, str, str]]:
    """``(label, family, path)`` for every ``.smt2`` under ``roots``.

    Labels are root-relative (prefixed with the root's basename when
    several roots are swept, so two roots can't collide); the family is
    the instance's containing directory — the unit the per-family table
    aggregates over.
    """
    out: List[Tuple[str, str, str]] = []
    multiple = len(roots) > 1
    for root in roots:
        if os.path.isfile(root):
            base = os.path.basename(root)
            family = os.path.basename(os.path.dirname(root)) or "."
            out.append((base, family, root))
            continue
        if not os.path.isdir(root):
            raise FileNotFoundError(
                "benchmark root %r is neither a file nor a directory" % root
            )
        rootname = os.path.basename(os.path.normpath(root))
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for filename in sorted(filenames):
                if not filename.endswith(".smt2"):
                    continue
                path = os.path.join(dirpath, filename)
                rel = os.path.relpath(path, root)
                label = os.path.join(rootname, rel) if multiple else rel
                family = os.path.dirname(rel) or rootname
                out.append((label, family, path))
    out.sort()
    return out


def _load_script(path: str) -> SmtScript:
    with open(path) as fp:
        return parse_smtlib(fp.read())


def _solve_instance(
    method: str,
    formula: Formula,
    timeout: float,
    sep_thold: int,
) -> Tuple[str, float, str]:
    """``(verdict, wall_seconds, detail)`` for one engine run."""
    request = SolveRequest(
        formula=formula, time_limit=timeout, sep_thold=sep_thold
    )
    started = time.perf_counter()
    try:
        outcome = registry.get(method).solve(request)
    except Exception as exc:  # an engine crash is a result, not an abort
        wall = time.perf_counter() - started
        return "error", wall, "%s: %s" % (type(exc).__name__, exc)
    wall = time.perf_counter() - started
    if outcome.status == Status.VALID:
        return "unsat", wall, ""
    if outcome.status == Status.INVALID:
        return "sat", wall, ""
    if outcome.status == Status.ERROR:
        return "error", wall, outcome.detail
    # Undecided: attribute to the budget when the wall clock (or the
    # engine's own detail string) says the budget is what stopped it.
    if wall >= 0.9 * timeout or "time" in outcome.detail.lower():
        return "timeout", wall, outcome.detail
    return "unknown", wall, outcome.detail


def _score(rows: List[InstanceRun], timeout: float) -> Dict[str, Any]:
    solved = [r for r in rows if r.solved]
    score: Dict[str, Any] = {
        "instances": len(rows),
        "solved": len(solved),
        "sat": sum(1 for r in rows if r.verdict == "sat"),
        "unsat": sum(1 for r in rows if r.verdict == "unsat"),
        "unknown": sum(1 for r in rows if r.verdict == "unknown"),
        "timeout": sum(1 for r in rows if r.verdict == "timeout"),
        "error": sum(1 for r in rows if r.verdict == "error"),
        "mismatches": sum(1 for r in rows if r.mismatch),
        "wall_seconds": round(sum(r.wall_seconds for r in rows), 6),
        "par2": round(
            sum(r.wall_seconds for r in solved)
            + 2.0 * timeout * (len(rows) - len(solved)),
            6,
        ),
    }
    return score


def run_compete(config: CompeteConfig) -> Dict[str, Any]:
    """Run the sweep; returns the JSON-ready report."""
    instances = discover_instances(config.roots)
    parsed: Dict[str, Tuple[Optional[SmtScript], str]] = {}
    for label, _family, path in instances:
        try:
            parsed[label] = (_load_script(path), "")
        except UnsupportedLogicError as exc:
            parsed[label] = (None, "unsupported: %s" % exc)
        except SmtLibError as exc:
            parsed[label] = (None, "parse error: %s" % exc)

    methods_report: Dict[str, Any] = {}
    mismatches_total = 0
    for method in config.methods:
        rows: List[InstanceRun] = []
        for label, family, _path in instances:
            script, parse_detail = parsed[label]
            if script is None:
                rows.append(
                    InstanceRun(
                        name=label,
                        family=family,
                        expected=None,
                        verdict="error",
                        wall_seconds=0.0,
                        detail=parse_detail,
                    )
                )
                continue
            verdict, wall, detail = _solve_instance(
                method,
                Not(script.conjunction()),
                config.timeout,
                config.sep_thold,
            )
            rows.append(
                InstanceRun(
                    name=label,
                    family=family,
                    expected=script.expected_status,
                    verdict=verdict,
                    wall_seconds=round(wall, 6),
                    detail=detail,
                )
            )
        families: Dict[str, Any] = {}
        for row in rows:
            families.setdefault(row.family, []).append(row)
        method_report: Dict[str, Any] = {
            "instances": {
                row.name: {
                    "family": row.family,
                    "expected": row.expected,
                    "verdict": row.verdict,
                    "wall_seconds": row.wall_seconds,
                    "mismatch": row.mismatch,
                    "detail": row.detail,
                }
                for row in rows
            },
            "score": _score(rows, config.timeout),
            "families": {
                family: _score(family_rows, config.timeout)
                for family, family_rows in sorted(families.items())
            },
        }
        mismatches_total += method_report["score"]["mismatches"]
        methods_report[method] = method_report

    errors_total = max(
        (report["score"]["error"] for report in methods_report.values()),
        default=0,
    )
    return {
        "meta": {
            "generated_by": "repro compete",
            "roots": list(config.roots),
            "methods": list(config.methods),
            "timeout_seconds": config.timeout,
            "instance_count": len(instances),
            "scoring": "par2",
        },
        "methods": methods_report,
        "mismatches_total": mismatches_total,
        "errors_total": errors_total,
        "ok": mismatches_total == 0
        and (not config.fail_on_error or errors_total == 0),
    }


def format_table(report: Dict[str, Any]) -> str:
    """A human-readable scoring table for the terminal."""
    lines: List[str] = []
    meta = report["meta"]
    lines.append(
        "compete: %d instance(s), timeout %.1fs, methods: %s"
        % (
            meta["instance_count"],
            meta["timeout_seconds"],
            ", ".join(meta["methods"]),
        )
    )
    header = (
        "%-10s %6s %5s %5s %7s %7s %5s %8s %9s"
        % ("method", "solved", "sat", "unsat", "unknown", "timeout",
           "error", "mismatch", "PAR-2")
    )
    lines.append(header)
    lines.append("-" * len(header))
    for method, section in report["methods"].items():
        score = section["score"]
        lines.append(
            "%-10s %6d %5d %5d %7d %7d %5d %8d %9.2f"
            % (
                method,
                score["solved"],
                score["sat"],
                score["unsat"],
                score["unknown"],
                score["timeout"],
                score["error"],
                score["mismatches"],
                score["par2"],
            )
        )
        for family, fscore in section["families"].items():
            lines.append(
                "  %-12s %d/%d solved, %d mismatch(es), PAR-2 %.2f"
                % (
                    family,
                    fscore["solved"],
                    fscore["instances"],
                    fscore["mismatches"],
                    fscore["par2"],
                )
            )
    for method, section in report["methods"].items():
        for name, row in section["instances"].items():
            if row["mismatch"]:
                lines.append(
                    "MISMATCH %s [%s]: expected %s, got %s"
                    % (name, method, row["expected"], row["verdict"])
                )
            elif row["verdict"] == "error":
                lines.append(
                    "ERROR    %s [%s]: %s" % (name, method, row["detail"])
                )
    return "\n".join(lines)


def write_report(report: Dict[str, Any], path: str) -> None:
    with open(path, "w") as fp:
        json.dump(report, fp, indent=2, sort_keys=True)
        fp.write("\n")
