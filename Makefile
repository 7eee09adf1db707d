PYTHON ?= python
PYTHONPATH := src

.PHONY: test portfolio-one-cpu lint typecheck analyze analyze-baseline sarif fuzz fuzz-smoke compete-smoke examples paper-claims perfbench-tests profile coverage ci clean

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

# The portfolio tests pinned to one CPU.  A race runs at most one member
# per usable CPU, so here the tests that do not pin the slot count run
# the one-slot schedule for real.  taskset sets the affinity of the test
# process only.  Skipped with a notice where taskset is missing.
portfolio-one-cpu:
	@if command -v taskset >/dev/null 2>&1; then \
		PYTHONPATH=$(PYTHONPATH) taskset -c 0 $(PYTHON) -m pytest tests/test_portfolio.py -q; \
	else \
		echo "taskset not installed; skipping the one-CPU portfolio run (util-linux)"; \
	fi

# Repo-specific static analysis (concurrency / determinism / flow /
# lifecycle / engine-contract rules; see docs/static-analysis.md).
# Always available: it needs only the stdlib.  The whole tree is
# checked — src, tools, AND tests — against the committed baseline
# (analysis-baseline.json): any finding not in the baseline fails, any
# stale baseline entry fails (--prune), and every suppression must
# carry a '-- why' justification.  Seeded rule fixtures are excluded.
analyze:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro analyze src tools tests \
		--exclude tests/fixtures/analysis \
		--baseline analysis-baseline.json --prune --check-suppressions

# Regenerate the committed baseline after deliberately accepting (or
# burning down) findings.  Review the diff before committing it.
analyze-baseline:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro analyze src tools tests \
		--exclude tests/fixtures/analysis \
		--baseline analysis-baseline.json --write-baseline

# SARIF 2.1.0 log for CI code-scanning upload (exit status ignored:
# the gating run is `make analyze`; this one only renders the log).
sarif:
	-PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro analyze src tools tests \
		--exclude tests/fixtures/analysis \
		--baseline analysis-baseline.json \
		--format sarif > analysis.sarif
	@echo "wrote analysis.sarif"

# ruff + the repro analyzer.  ruff is skipped with a notice when not
# installed (the dev container ships without it; CI installs it).
lint: analyze
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tools; \
	else \
		echo "ruff not installed; skipping (pip install ruff)"; \
	fi

# mypy strict on core/engine/logic/service, gradual elsewhere
# (configured in pyproject.toml).  Skipped with a notice when mypy is
# not installed; CI installs and enforces it.
typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "mypy not installed; skipping (pip install mypy)"; \
	fi

# SMT-LIB evaluation smoke: sweeps the committed fixture corpus plus a
# benchgen-emitted mini-corpus through the hybrid and portfolio engines
# (repro compete), failing on any verdict-vs-:status mismatch or
# instance error; the SMT-COMP-style scoring report lands in the
# git-ignored compete-report.json (CI uploads it).
compete-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro compete \
		tests/fixtures/smtlib/corpus --emit-benchgen .compete-benchgen \
		--methods hybrid,portfolio --timeout 30 --fail-on-error \
		--out compete-report.json

# Run every script in examples/ end to end; each asserts its own
# verdicts (about 40 s, most of it encoding_comparison).
examples:
	@set -e; for script in examples/*.py; do \
		echo "== $$script"; \
		PYTHONPATH=$(PYTHONPATH) $(PYTHON) $$script; \
	done

# Every experiment of the paper's evaluation (Figs. 2-6, the SEP_THOLD
# selection and the four ablations), each printing its table and
# checking its claims; exits 1 when any claim fails.  Some claims
# compare times, so a heavily loaded machine can fail them.  About
# 11 minutes on 2 cores; needs only the stdlib.
paper-claims:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro experiment all

# The benchmark's own tests (about 3 minutes): its helpers, hermetic
# runs and streams, including the check that the spans around one suite
# query match its stage records (the preprocess stage among them).
perfbench-tests:
	$(PYTHON) -m pytest perfbench/tests -q

# cProfile one generated CNF instance or one suite query end to end
# (PROFILE_ARGS picks instance/flags, e.g. make profile
# PROFILE_ARGS="php_9_8 --cube" or PROFILE_ARGS="invariant_n13_4", which
# HYBRID decides in one SAT search that checks its LAZY class's bounds;
# the sat record counts the theory_conflicts).
# The repository's benchmark is perfbench/ (python3 perfbench/run.py;
# see perfbench/NOTES.md), not a make target.
profile:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) tools/profile_sat.py $(PROFILE_ARGS)

# Line coverage with floors (requires pytest-cov; CI installs it — the
# local dev container intentionally has no coverage tooling).
coverage:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q \
		--cov=repro --cov-report=json --cov-report=term
	$(PYTHON) tools/coverage_gate.py

# The full acceptance campaign (deterministic; ~3s).
fuzz:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro fuzz --iterations 500 --seed 0

# Fixed-seed smoke campaign for CI: fast, deterministic, all profiles.
fuzz-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro fuzz --iterations 200 --seed 0

# Every step of .github/workflows/ci.yml that runs without extra
# packages: static analysis (plus ruff and mypy when installed), tier-1
# tests, the one-CPU portfolio run, fuzz smoke, compete smoke, the
# examples, the benchmark's tests and the paper claims (about 11
# minutes of the total).  Two steps stay CI-only: the coverage gate
# (needs pytest-cov) and the SARIF log (an upload artifact).
ci: lint typecheck test portfolio-one-cpu fuzz-smoke compete-smoke examples perfbench-tests paper-claims

clean:
	rm -rf fuzz-failures .pytest_cache .hypothesis .compete-benchgen \
		compete-report.json
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
