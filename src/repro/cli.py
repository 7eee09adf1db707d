"""Command-line interface: ``repro-suf`` / ``python -m repro``.

Subcommands
-----------
``check FILE``
    Decide the validity of the SUF formula in ``FILE`` (s-expression
    syntax, see :mod:`repro.logic.parser`); ``-`` reads stdin.  Every
    registered engine is available via ``--method`` (including
    ``portfolio``, the parallel race); ``--stats`` prints the per-stage
    timing/counter telemetry.
``bench NAME``
    Generate a suite benchmark, print its statistics, and decide it.
``suite``
    List the 49-benchmark suite.
``portfolio FILE...``
    Race every engine on each formula (first decided verdict wins),
    one file after another in input order.
``compete DIR...``
    Sweep directories of SMT-LIB 2 benchmarks through one or more
    engines with per-instance timeouts, check every verdict against the
    scripts' ``(set-info :status ...)`` annotations, and print an
    SMT-COMP-style scoring table (PAR-2, per-family breakdown);
    ``--out FILE`` also writes the report as JSON.  Exits 1 on any
    verdict-vs-status mismatch.
``serve``
    Serve validity requests as line-delimited JSON over stdin/stdout
    (see ``docs/serve-protocol.md``): a worker pool with per-request
    deadlines, bounded-queue backpressure, a shared result cache, and
    graceful drain on SIGTERM.
``experiment {fig2,fig3,fig4,fig5,fig6,threshold,ablation,all}``
    Run one of the paper's experiments, print its table/figure and check
    the paper's claims on it; exits 1 when a claim fails.
``analyze FILE``
    Print the separation analysis (classes, domains, SepCnt, per-class
    method choice) for a formula — the paper's §4 steps 1–4, visible.
``sat FILE``
    Run the built-in CDCL solver on a DIMACS CNF file.
``fuzz``
    Run the differential/metamorphic fuzzing campaign over every
    decision method; discrepancies are shrunk and written to
    ``fuzz-failures/``.  Exits 0 when clean, 1 on a discrepancy
    (argparse usage errors exit 2).

All decision-procedure dispatch goes through
:mod:`repro.engine.registry`; this module never imports a solver
directly.  A command whose input file cannot be read or parsed prints
one ``error:`` line on stderr and exits 2.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, List, Optional, TypeVar

from . import experiments
from .benchgen.suite import benchmark_by_name, suite
from .core.status import Status
from .encodings.hybrid import DEFAULT_SEP_THOLD
from .engine import registry
from .engine.contract import SolveOutcome, SolveRequest
from .logic.parser import parse_formula
from .logic.printer import pretty

from .engine.cube import DEFAULT_DEPTH as _CUBE_DEFAULT_DEPTH

__all__ = ["main", "build_parser"]

_T = TypeVar("_T")


def build_parser() -> argparse.ArgumentParser:
    engine_names = registry.list_engines()
    parser = argparse.ArgumentParser(
        prog="repro-suf",
        description=(
            "Hybrid SAT-based decision procedure for separation logic "
            "with uninterpreted functions (DAC 2003 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide a SUF formula file")
    check.add_argument("file", help="formula file, or - for stdin")
    check.add_argument(
        "--method",
        choices=engine_names,
        default="hybrid",
    )
    check.add_argument(
        "--format",
        choices=["auto", "sexpr", "smtlib"],
        default="auto",
        help="input syntax; auto uses smtlib for .smt2 files or scripts "
        "starting with an SMT-LIB command",
    )
    check.add_argument("--sep-thold", type=int, default=DEFAULT_SEP_THOLD)
    check.add_argument(
        "--sd-ranges",
        choices=["uniform", "ascending"],
        default="uniform",
        help="SD domain allocation (ascending = Pnueli-et-al. ranges on "
        "equality-only classes; only affects --method sd)",
    )
    check.add_argument("--timeout", type=float, default=None)
    check.add_argument(
        "--countermodel",
        action="store_true",
        help="print a countermodel when the formula is invalid",
    )
    check.add_argument(
        "--stats",
        action="store_true",
        help="print per-stage timing and counter telemetry",
    )
    check.add_argument(
        "--no-preprocess",
        action="store_true",
        help="skip the SatELite-style CNF simplification stage (eager "
        "methods; useful to isolate encoder/solver behaviour or to "
        "rule the preprocessor out when debugging a verdict)",
    )
    check.add_argument(
        "--cube-depth",
        type=int,
        default=None,
        metavar="N",
        help="cube-tree depth for --method cube (default %d)"
        % _CUBE_DEFAULT_DEPTH,
    )
    check.add_argument(
        "--cube-procs",
        type=int,
        default=None,
        metavar="N",
        help="cube-and-conquer worker processes for --method cube "
        "(default: one per core, capped at 4; 1 = sequential conquering)",
    )
    check.add_argument(
        "--no-share",
        action="store_true",
        help="disable learned-clause sharing between cube workers "
        "(--method cube; for ablation/debugging)",
    )

    bench = sub.add_parser("bench", help="decide one suite benchmark")
    bench.add_argument("name")
    bench.add_argument(
        "--method",
        choices=engine_names,
        default="hybrid",
    )
    bench.add_argument("--invalid", action="store_true")
    bench.add_argument("--print-formula", action="store_true")

    sub.add_parser("suite", help="list the 49-benchmark suite")

    portfolio = sub.add_parser(
        "portfolio",
        help="race engines on formulas; the first decided verdict wins",
    )
    portfolio.add_argument(
        "files", nargs="+", help="formula files, or - for stdin"
    )
    portfolio.add_argument(
        "--engines",
        default=None,
        metavar="NAMES",
        help="comma-separated member subset in priority order "
        "(default: every engine)",
    )
    portfolio.add_argument("--timeout", type=float, default=None)
    portfolio.add_argument(
        "--sequential",
        action="store_true",
        help="run members in-process in priority order (no multiprocessing)",
    )
    portfolio.add_argument(
        "--stats",
        action="store_true",
        help="print the winner's per-stage telemetry",
    )

    compete = sub.add_parser(
        "compete",
        help="sweep SMT-LIB benchmark directories with per-instance "
        "timeouts and score verdicts against :status annotations "
        "(see docs/smtlib.md)",
    )
    compete.add_argument(
        "roots",
        nargs="*",
        help="benchmark directories (or individual .smt2 files)",
    )
    compete.add_argument(
        "--methods",
        default="hybrid",
        metavar="NAMES",
        help="comma-separated engine methods to sweep (default hybrid)",
    )
    compete.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-instance wall-clock budget (default 10)",
    )
    compete.add_argument(
        "--sep-thold", type=int, default=DEFAULT_SEP_THOLD, metavar="N",
        help="SEP_THOLD passed to every solve (default %(default)s)",
    )
    compete.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="also write the scoring report as JSON to FILE",
    )
    compete.add_argument(
        "--emit-benchgen",
        default=None,
        metavar="DIR",
        help="emit the self-hosted :status-annotated benchgen corpus "
        "into DIR and include it in the sweep",
    )
    compete.add_argument(
        "--fail-on-error",
        action="store_true",
        help="also exit 1 when any instance errors (parse failure, "
        "out-of-fragment construct, engine crash) — the self-hosted "
        "smoke corpus runs with this on",
    )

    serve = sub.add_parser(
        "serve",
        help="serve line-delimited JSON validity requests over "
        "stdin/stdout (see docs/serve-protocol.md)",
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="worker threads (default 2)"
    )
    serve.add_argument(
        "--queue-size",
        type=int,
        default=16,
        help="bounded request queue; further requests are rejected with "
        "an 'overloaded' error (default 16)",
    )
    serve.add_argument(
        "--engine",
        default="hybrid",
        help="default engine (a name, or comma-separated portfolio "
        "members); per-request 'engine' overrides it",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="default per-request deadline in seconds (per-request "
        "'timeout' overrides it)",
    )
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the shared result cache",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="enable the on-disk cache tier at DIR "
        "(conventionally results/cache)",
    )
    serve.add_argument(
        "--no-fork",
        action="store_true",
        help="solve in-process instead of forking a raceable child per "
        "request (deadlines then only observed between engines)",
    )

    exp = sub.add_parser(
        "experiment",
        help="run a paper experiment and check its claims "
        "(exit 1 when one fails)",
    )
    exp.add_argument("which", choices=[*experiments.EXPERIMENTS, "all"])
    exp.add_argument("--timeout", type=float, default=None)
    exp.add_argument(
        "--save",
        metavar="FILE",
        default=None,
        help="also write the experiment's output to FILE",
    )

    analyze = sub.add_parser(
        "analyze",
        help="separation analysis of a formula file, or the repo's "
        "static-analysis lint suite when given directories / .py files "
        "(see docs/static-analysis.md)",
    )
    analyze.add_argument(
        "paths",
        nargs="*",
        help="a formula file (or -) for separation analysis; "
        "directories or .py files for the lint suite",
    )
    analyze.add_argument("--sep-thold", type=int, default=DEFAULT_SEP_THOLD)
    analyze.add_argument(
        "--format",
        choices=["human", "json", "sarif"],
        default="human",
        help="lint report format (lint mode only); sarif emits a "
        "SARIF 2.1.0 log for CI code-scanning upload",
    )
    analyze.add_argument(
        "--rules",
        default=None,
        metavar="CODES",
        help="comma-separated rule subset, e.g. RC101,RE304 "
        "(lint mode only)",
    )
    analyze.add_argument(
        "--list-rules",
        action="store_true",
        help="print the lint rule catalog and exit",
    )
    analyze.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="compare findings against a committed baseline: only "
        "findings not in FILE fail the run (lint mode only)",
    )
    analyze.add_argument(
        "--write-baseline",
        action="store_true",
        help="record the current findings into --baseline FILE and "
        "exit 0 (lint mode only)",
    )
    analyze.add_argument(
        "--prune",
        action="store_true",
        help="with --baseline: also report stale baseline entries the "
        "tree no longer produces, and fail if any exist",
    )
    analyze.add_argument(
        "--exclude",
        action="append",
        default=None,
        metavar="PATH",
        help="skip files under PATH (repeatable; lint mode only) — "
        "used to keep seeded rule fixtures out of tree-wide runs",
    )
    analyze.add_argument(
        "--list-suppressions",
        action="store_true",
        help="print every suppression comment in the checked files "
        "with its justification text, then exit (lint mode only)",
    )
    analyze.add_argument(
        "--check-suppressions",
        action="store_true",
        help="fail (RS901) on any suppression missing the '-- why' "
        "justification clause (lint mode only)",
    )

    sat = sub.add_parser("sat", help="solve a DIMACS CNF file")
    sat.add_argument("file", help="DIMACS file, or - for stdin")
    sat.add_argument("--timeout", type=float, default=None)
    sat.add_argument(
        "--model", action="store_true", help="print the satisfying model"
    )

    fuzz = sub.add_parser(
        "fuzz",
        help="differential + metamorphic fuzzing across all methods",
    )
    fuzz.add_argument(
        "--iterations", type=int, default=500, help="samples to run"
    )
    fuzz.add_argument(
        "--seed", type=int, default=0, help="campaign seed (echoed in output)"
    )
    fuzz.add_argument(
        "--profile",
        default="all",
        help="generator profile: equality, offset, uf, mixed, or all "
        "(rotate through every profile)",
    )
    fuzz.add_argument(
        "--out",
        default="fuzz-failures",
        metavar="DIR",
        help="directory for shrunk reproducers (.sexpr + .smt2)",
    )
    fuzz.add_argument(
        "--methods",
        default=None,
        metavar="NAMES",
        help="comma-separated subset of brute,sd,eij,hybrid,static,"
        "sd+preprocess,hybrid+preprocess,lazy,svc,cached,incremental,"
        "cube,smtlib-roundtrip",
    )
    fuzz.add_argument(
        "--corpus",
        default=None,
        metavar="DIR",
        help="mutate the .smt2 instances under DIR (metamorphic "
        "transform chains) instead of generating random samples",
    )
    fuzz.add_argument(
        "--no-metamorphic",
        action="store_true",
        help="skip the metamorphic transform checks",
    )
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="report raw failures without delta-debugging them",
    )
    fuzz.add_argument(
        "--max-failures", type=int, default=5, help="stop after N failures"
    )
    fuzz.add_argument(
        "--self-check",
        action="store_true",
        help="inject a strictness bug into the hybrid method and verify "
        "the harness catches it (exits 0 iff the bug is caught)",
    )
    return parser


class _InputError(Exception):
    """An input that could not be read or parsed; :func:`main` prints it
    as ``error: <message>`` and exits 2."""


def _read_input(path: str, parse: Callable[[str], _T]) -> _T:
    """Read ``path`` (``-`` is stdin) and parse its text.

    Every command reads its input here.  An unreadable file and the
    readers' ``ValueError``s (``ParseError``, ``SmtLibError``, the
    DIMACS reader's) become :class:`_InputError`; nothing raised while
    solving passes through this function.
    """
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path) as fp:
                text = fp.read()
        return parse(text)
    except (OSError, ValueError) as exc:
        raise _InputError(str(exc)) from exc


def _looks_like_smtlib(path: str, text: str, fmt: str = "auto") -> bool:
    if fmt != "auto":
        return fmt == "smtlib"
    if path.endswith(".smt2"):
        return True
    head = text.lstrip()
    return head.startswith("(set-logic") or head.startswith(
        "(declare-"
    ) or head.startswith("(assert")


def _read_formula(path: str, fmt: str = "auto"):
    """Parse a formula file; returns (formula, smtlib_mode)."""

    def parse(text: str):
        if _looks_like_smtlib(path, text, fmt):
            from .logic.smtlib import parse_smtlib
            from .logic.terms import Not

            script = parse_smtlib(text)
            # SMT-LIB semantics: check-sat == invalidity of the negation.
            return Not(script.conjunction()), True
        return parse_formula(text), False

    return _read_input(path, parse)


def _parse_engine_list(text: Optional[str]) -> Optional[List[str]]:
    if text is None:
        return None
    names = [n.strip() for n in text.split(",") if n.strip()]
    known = registry.list_engines()
    unknown = [n for n in names if n not in known]
    if unknown:
        raise ValueError(
            "unknown engine(s) %s; registered: %s"
            % (", ".join(unknown), ", ".join(known))
        )
    return names


def _print_stats(outcome: SolveOutcome) -> None:
    label = outcome.winner or outcome.engine
    print("stages (%s):" % label)
    for record in outcome.stages:
        print("  %s" % record.describe())


def _cmd_check(args) -> int:
    formula, smtlib_mode = _read_formula(args.file, args.format)
    engine = registry.get(args.method)
    options = {}
    if args.cube_depth is not None:
        options["cube_depth"] = args.cube_depth
    if args.cube_procs is not None:
        options["cube_procs"] = args.cube_procs
    if args.no_share:
        options["cube_share"] = False
    result = engine.solve(
        SolveRequest(
            formula=formula,
            time_limit=args.timeout,
            sep_thold=args.sep_thold,
            sd_ranges=args.sd_ranges,
            preprocess=not args.no_preprocess,
            options=options,
        )
    )
    if smtlib_mode:
        verdict = {
            Status.VALID: "unsat",
            Status.INVALID: "sat",
        }.get(result.status, "unknown")
        print(verdict)
    print("status: %s" % result.status)
    if not result.decided and result.detail:
        print("detail: %s" % result.detail)
    print(
        "time: %.3fs (encode %.3fs, search %.3fs)"
        % (
            result.wall_seconds,
            result.stats.encode_seconds,
            result.stats.sat_seconds,
        )
    )
    if result.winner is not None:
        print("winner: %s" % result.winner)
    if args.stats:
        _print_stats(result)
    if result.status == Status.INVALID and args.countermodel:
        model = result.counterexample
        if model is not None:
            print("countermodel:")
            for name, value in sorted(model.vars.items()):
                print("  %s = %d" % (name, value))
            for name, value in sorted(model.bools.items()):
                print("  %s = %s" % (name, value))
    return 0 if result.status == Status.VALID else 1


def _cmd_bench(args) -> int:
    bench = benchmark_by_name(args.name, valid=not args.invalid)
    if bench is None:
        print("unknown benchmark %r; see `repro-suf suite`" % args.name)
        return 2
    if args.print_formula:
        print(pretty(bench.formula))
    result = registry.get(args.method).solve(
        SolveRequest(formula=bench.formula)
    )
    won = " [winner: %s]" % result.winner if result.winner else ""
    print(
        "%s: %s in %.3fs (expected valid=%s, %d DAG nodes)%s"
        % (
            bench.name,
            result.status,
            result.wall_seconds,
            bench.expected_valid,
            bench.dag_size,
            won,
        )
    )
    return 0


def _cmd_suite(_args) -> int:
    for bench in suite():
        kind = "invariant" if bench.invariant_checking else "regular"
        print(
            "%-28s %-10s %-9s %6d nodes"
            % (bench.name, bench.domain, kind, bench.dag_size)
        )
    return 0


def _cmd_portfolio(args) -> int:
    from .engine.portfolio import solve_portfolio

    try:
        engines = _parse_engine_list(args.engines)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    # Read every file before the first race, so a bad one exits 2 at once.
    formulas = [_read_formula(path, "auto")[0] for path in args.files]
    exit_code = 0
    for path, formula in zip(args.files, formulas):
        outcome = solve_portfolio(
            SolveRequest(formula=formula, time_limit=args.timeout),
            engines=engines,
            parallel=not args.sequential,
        )
        print(
            "%s: %s winner=%s time=%.3fs"
            % (
                path,
                outcome.status,
                outcome.winner or "-",
                outcome.wall_seconds,
            )
        )
        if args.stats:
            _print_stats(outcome)
        if outcome.status != Status.VALID:
            exit_code = 1
    return exit_code


def _cmd_compete(args) -> int:
    from .engine.compete import (
        DEFAULT_TIMEOUT as COMPETE_DEFAULT_TIMEOUT,
        CompeteConfig,
        format_table,
        run_compete,
        write_report,
    )

    try:
        methods = _parse_engine_list(args.methods) or []
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    roots = list(args.roots)
    if args.emit_benchgen:
        from .benchgen.smtlib_corpus import emit_corpus

        written = emit_corpus(args.emit_benchgen)
        print(
            "emitted %d benchgen instance(s) into %s"
            % (len(written), args.emit_benchgen)
        )
        roots.append(args.emit_benchgen)
    if not roots:
        print(
            "compete: provide at least one benchmark directory "
            "(or --emit-benchgen DIR)",
            file=sys.stderr,
        )
        return 2
    try:
        report = run_compete(
            CompeteConfig(
                roots=roots,
                methods=methods,
                timeout=args.timeout or COMPETE_DEFAULT_TIMEOUT,
                sep_thold=args.sep_thold,
                fail_on_error=args.fail_on_error,
            )
        )
    except FileNotFoundError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(format_table(report))
    if args.out:
        write_report(report, args.out)
        print("wrote %s" % args.out)
    if report["mismatches_total"]:
        print(
            "error: %d verdict(s) contradict the :status annotations"
            % report["mismatches_total"],
            file=sys.stderr,
        )
        return 1
    if args.fail_on_error and report["errors_total"]:
        print(
            "error: %d instance(s) errored (--fail-on-error)"
            % report["errors_total"],
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_serve(args) -> int:
    from .service.server import ServeConfig, run_server

    try:
        _parse_engine_list(args.engine)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    config = ServeConfig(
        workers=args.workers,
        queue_size=args.queue_size,
        engine=args.engine,
        default_timeout=args.timeout,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        fork=not args.no_fork,
    )
    return run_server(config)


def _cmd_experiment(args) -> int:
    timeout = args.timeout or experiments.DEFAULT_TIMEOUT
    every = args.which == "all"
    outputs = []
    failed = []
    for name in experiments.EXPERIMENTS if every else [args.which]:
        if every:
            print("=" * 72)
        text, claims = experiments.EXPERIMENTS[name](timeout)
        print(text)
        if every:
            print()
        outputs.append(text)
        failed.extend(claim for claim in claims if not claim.holds)
    if args.save:
        with open(args.save, "w") as fp:
            fp.write("\n\n".join(outputs))
            fp.write("\n")
    for claim in failed:
        print("experiment: %s" % claim, file=sys.stderr)
    return 1 if failed else 0


def _cmd_analyze(args) -> int:
    """Dispatch: lint mode for directories/.py files, else separation
    analysis of a formula file (the historical behaviour)."""
    import os

    if args.list_rules:
        from .analysis import all_rules, render_rule_catalog

        print(render_rule_catalog(all_rules()))
        return 0
    if not args.paths:
        print(
            "analyze: provide a formula file (or -) or directories/.py "
            "files to lint",
            file=sys.stderr,
        )
        return 2
    lint_mode = all(
        path.endswith(".py") or os.path.isdir(path) for path in args.paths
    )
    if lint_mode:
        return _cmd_analyze_lint(args)
    return _cmd_analyze_formula(args)


def _cmd_analyze_lint(args) -> int:
    import os

    from .analysis import (
        Finding,
        ModuleContext,
        Project,
        all_rules,
        analyze_project,
        diff_against_baseline,
        iter_python_files,
        load_baseline,
        render_suppressions,
        rules_by_code,
        write_baseline,
    )
    from .analysis.reporters import write_report

    rules = None
    if args.rules:
        try:
            rules = rules_by_code(args.rules.split(","))
        except KeyError as exc:
            print("analyze: %s" % exc.args[0], file=sys.stderr)
            return 2

    excludes = [os.path.normpath(e) for e in (args.exclude or [])]

    def _excluded(path: str) -> bool:
        norm = os.path.normpath(path)
        return any(
            norm == e or norm.startswith(e + os.sep) for e in excludes
        )

    try:
        files = [
            path
            for path in iter_python_files(args.paths)
            if not _excluded(path)
        ]
        modules = [ModuleContext.parse(path) for path in files]
    except (OSError, SyntaxError, ValueError) as exc:
        print("analyze: %s" % exc, file=sys.stderr)
        return 2
    project = Project(modules)

    if args.list_suppressions:
        records = [
            record
            for module in modules
            for record in module.suppression_records
        ]
        print(render_suppressions(records))
        return 0

    findings = analyze_project(project, rules)

    if args.write_baseline:
        if not args.baseline:
            print(
                "analyze: --write-baseline requires --baseline FILE",
                file=sys.stderr,
            )
            return 2
        write_baseline(args.baseline, findings)
        print(
            "baseline: wrote %d finding(s) from %d file(s) to %s"
            % (len(findings), len(files), args.baseline)
        )
        return 0

    stale = []
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError, KeyError) as exc:
            print("analyze: baseline: %s" % exc, file=sys.stderr)
            return 2
        diff = diff_against_baseline(findings, baseline)
        findings = diff.new
        stale = diff.stale

    # Suppression debt is generated here, not as a registered rule: a
    # registered RS901 could be silenced by the very blanket
    # suppression it reports on.
    if args.check_suppressions:
        for module in modules:
            for record in module.suppression_records:
                if not record.why:
                    findings.append(
                        Finding(
                            code="RS901",
                            path=record.path,
                            line=record.line,
                            col=0,
                            message=(
                                "suppression ignore[%s] has no '-- why' "
                                "justification; explain it or remove it"
                                % record.codes_text()
                            ),
                        )
                    )
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))

    write_report(
        sys.stdout,
        findings,
        len(files),
        fmt=args.format,
        rules=rules if rules is not None else all_rules(),
    )
    if args.prune and stale:
        for code, path, message, count in stale:
            print(
                "stale baseline entry (%dx): %s %s: %s"
                % (count, code, path, message),
                file=sys.stderr,
            )
        print(
            "analyze: %d stale baseline entr(y/ies) — regenerate with "
            "--write-baseline" % len(stale),
            file=sys.stderr,
        )
    failed = bool(findings) or (args.prune and bool(stale))
    return 1 if failed else 0


def _cmd_analyze_formula(args) -> int:
    from .encodings.hybrid import DEFAULT_TRANS_BUDGET, EIJ, choose_method
    from .encodings.transitivity import equality_clause_bound
    from .separation.analysis import analyze_separation
    from .transform.func_elim import eliminate_applications

    formula = _read_input(args.paths[0], parse_formula)
    f_sep, info = eliminate_applications(formula)
    analysis = analyze_separation(f_sep)
    fresh = len(info.fresh_func_vars()) + len(info.fresh_pred_vars())
    print("fresh constants from UF/UP elimination: %d" % fresh)
    print(
        "V_p: %d constant(s), V_g: %d constant(s)"
        % (len(analysis.p_vars), len(analysis.g_vars))
    )
    print("classes: %d" % len(analysis.classes))
    for vclass in analysis.classes:
        kind = []
        if vclass.has_inequality:
            kind.append("inequalities")
        if vclass.has_offset:
            kind.append("offsets")
        method = choose_method(vclass, args.sep_thold, DEFAULT_TRANS_BUDGET)
        if method == EIJ and vclass.sep_count > args.sep_thold:
            method += " (transitivity <= %d clauses)" % (
                equality_clause_bound(len(vclass.vars))
            )
        print(
            "  class %d: %d constant(s), SepCnt=%d, range=%d, span=%d, "
            "%s -> %s"
            % (
                vclass.index,
                len(vclass.vars),
                vclass.sep_count,
                vclass.range_size,
                vclass.max_span,
                "+".join(kind) if kind else "equalities only",
                method,
            )
        )
    print(
        "total SepCnt=%d (SEP_THOLD=%d)"
        % (analysis.total_sep_count(), args.sep_thold)
    )
    return 0


def _cmd_sat(args) -> int:
    from .sat.dimacs import loads
    from .sat.solver import solve_cnf

    cnf = _read_input(args.file, loads)
    result = solve_cnf(cnf, time_limit=args.timeout)
    stats = result.stats
    print("s %s" % ("SATISFIABLE" if result.is_sat else
                    "UNSATISFIABLE" if result.is_unsat else "UNKNOWN"))
    print(
        "c decisions=%d propagations=%d conflicts=%d learned=%d "
        "restarts=%d time=%.3fs"
        % (
            stats.decisions,
            stats.propagations,
            stats.conflicts,
            stats.learned_clauses,
            stats.restarts,
            stats.time_seconds,
        )
    )
    if result.is_sat and args.model:
        lits = [
            ("%d" % v) if result.model[v] else ("-%d" % v)
            for v in sorted(result.model)
        ]
        print("v %s 0" % " ".join(lits))
    if result.is_sat:
        return 10
    if result.is_unsat:
        return 20
    return 0


def _cmd_fuzz(args) -> int:
    from .fuzz import (
        FuzzConfig,
        default_methods,
        inject_strictness_bug,
        run_campaign,
    )

    methods = None
    try:
        if args.methods is not None:
            names = [n.strip() for n in args.methods.split(",") if n.strip()]
            methods = default_methods(names=names)
        if args.self_check:
            methods = inject_strictness_bug(
                methods or default_methods(), victim="hybrid"
            )
        if args.corpus is not None and not os.path.isdir(args.corpus):
            raise ValueError(
                "corpus directory %r does not exist" % args.corpus
            )
        config = FuzzConfig(
            iterations=args.iterations,
            seed=args.seed,
            profile=args.profile,
            metamorphic=not args.no_metamorphic,
            shrink=not args.no_shrink,
            out_dir=None if args.self_check else args.out,
            methods=methods,
            max_failures=args.max_failures,
            corpus_dir=args.corpus,
        )
        config.profile_names()  # validate the profile name up front
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    try:
        report = run_campaign(
            config, log=lambda line: print("fuzz: %s" % line)
        )
    except ValueError as exc:  # e.g. a corpus with no parseable instance
        print("error: %s" % exc, file=sys.stderr)
        return 2
    for line in report.summary_lines():
        print(line)
    if args.self_check:
        if report.ok:
            print("self-check FAILED: injected bug was not detected")
            return 1
        print(
            "self-check passed: injected strictness bug caught and "
            "shrunk in %d iteration(s)" % report.iterations_run
        )
        return 0
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "check": _cmd_check,
        "bench": _cmd_bench,
        "suite": _cmd_suite,
        "portfolio": _cmd_portfolio,
        "compete": _cmd_compete,
        "serve": _cmd_serve,
        "experiment": _cmd_experiment,
        "analyze": _cmd_analyze,
        "sat": _cmd_sat,
        "fuzz": _cmd_fuzz,
    }
    try:
        return handlers[args.command](args)
    except _InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
