"""Per-run bookkeeping shared by every workload: latencies, failures,
answer checks, CPU and memory.

Nothing here imports ``repro``; the helpers only count and summarise.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


def percentile(samples: List[float], q: float) -> Tuple[Optional[float], int]:
    """The ``q``-quantile of ``samples`` and the sample count.

    The value is ``None`` unless at least ten samples lie beyond the
    percentile (``n * (1 - q) >= 10``): a tail read off fewer points is
    one outlier, not a percentile.  The count is always returned so a
    report can say how many samples it had.
    """
    n = len(samples)
    if not 0.0 < q < 1.0:
        raise ValueError("quantile must lie strictly between 0 and 1")
    if n == 0 or n * (1.0 - q) < 10.0 - 1e-9:
        return None, n
    ordered = sorted(samples)
    rank = max(0, math.ceil(q * n) - 1)
    return ordered[rank], n


def median(samples: List[float]) -> float:
    return statistics.median(samples) if samples else 0.0


@dataclass
class Usage:
    """CPU seconds and peak RSS of this process and its reaped children."""

    self_cpu: float
    child_cpu: float
    self_rss_mb: float
    child_rss_mb: float

    @classmethod
    def now(cls) -> "Usage":
        me = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        # Linux reports ru_maxrss in KiB.
        return cls(
            self_cpu=me.ru_utime + me.ru_stime,
            child_cpu=kids.ru_utime + kids.ru_stime,
            self_rss_mb=me.ru_maxrss / 1024.0,
            child_rss_mb=kids.ru_maxrss / 1024.0,
        )


@dataclass
class Tally:
    """Everything one measured run records about its operations.

    A *query* is one SUF validity question: VALID/INVALID (or sat/unsat)
    is its answer.  Serve's session bookkeeping (open, assert, push, pop,
    close) are operations that are not queries; every other operation is
    one.  Latency, throughput and the decided share are over queries;
    failures are counted over all operations.
    """

    limit_s: float
    latencies: List[float] = field(default_factory=list)
    operations: int = 0
    failed: int = 0
    queries: int = 0
    decided: int = 0
    errors: Counter = field(default_factory=Counter)
    wrong: List[str] = field(default_factory=list)
    unchecked_models: int = 0
    measured_s: float = 0.0
    passes: int = 0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0

    def record(
        self,
        latency: float,
        query: bool = True,
        decided: bool = False,
        error: Optional[str] = None,
    ) -> None:
        """One answered operation.  An error is a failure and, like every
        failure, misses the latency limit."""
        self.operations += 1
        if query:
            self.queries += 1
            self.latencies.append(latency)
        if error is not None:
            self.failed += 1
            self.errors[error] += 1
            return
        if query and decided and latency <= self.limit_s:
            self.decided += 1

    def mismatch(self, message: str) -> None:
        self.wrong.append(message)

    @property
    def correct(self) -> bool:
        return not self.wrong

    def end_to_end(self, setup_s: float) -> Dict[str, Tuple[float, str]]:
        """The gated end-to-end metrics (``BENCHMARK.json``), name ->
        (value, unit)."""
        return {
            "setup_s": (setup_s, "s"),
            "queries_per_s": (self.queries / self.measured_s, "1/s"),
            "decided_frac": (self.decided / max(1, self.queries), "ratio"),
        }

    def report_lines(self, setup_s: float) -> List[str]:
        """Human-readable report: every end-to-end metric with its unit.

        The last five are printed, not gated: on at least one workload
        they do not hold steady from seed to seed (see NOTES.md), and
        ``latency_s.p90`` exists only with ten samples beyond it.
        """
        n = max(1, self.queries)
        lines = [
            "%-16s %.6g %s" % (name, value, unit)
            for name, (value, unit) in self.end_to_end(setup_s).items()
        ]
        lines.append("latency_s.p50    %.6g s" % median(self.latencies))
        p90, count = percentile(self.latencies, 0.9)
        if p90 is None:
            lines.append("latency_s.p90    n/a (%d samples; needs >= 100)" % count)
        else:
            lines.append("latency_s.p90    %.6g s (%d samples)" % (p90, count))
        lines.append(
            "error_frac       %.6g ratio (%d of %d operations failed%s)"
            % (
                self.failed / n,
                self.failed,
                self.operations,
                "".join(", %s=%d" % kv for kv in sorted(self.errors.items())),
            )
        )
        lines.append("cpu_s_per_query  %.6g s" % (self.cpu_s / n))
        lines.append("peak_rss_mb      %.6g MB" % self.peak_rss_mb)
        lines.append(
            "passes %d, measured %.3f s, decided %d of %d queries"
            % (self.passes, self.measured_s, self.decided, self.queries)
        )
        if self.unchecked_models:
            lines.append(
                "INVALID/sat answers without a model to check: %d"
                % self.unchecked_models
            )
        for message in self.wrong[:20]:
            lines.append("WRONG: %s" % message)
        return lines


def run_passes(run_one_pass, seconds: float, tally: Tally) -> None:
    """Closed-loop measured phase made of whole passes.

    The first pass always runs; another starts only while it is expected
    (from the previous pass) to end within ``seconds``.  Whole passes keep
    the query mix identical from run to run, which a time-cut window over
    the suite's heavy-tailed query costs does not.
    """
    before = Usage.now()
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        run_one_pass(tally.passes)
        tally.passes += 1
        now = time.perf_counter()
        if (now - start) + (now - pass_start) > seconds:
            break
    tally.measured_s = time.perf_counter() - start
    after = Usage.now()
    tally.cpu_s = (after.self_cpu - before.self_cpu) + (
        after.child_cpu - before.child_cpu
    )
    tally.peak_rss_mb = max(after.self_rss_mb, after.child_rss_mb)
