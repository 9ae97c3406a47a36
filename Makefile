# Convenience targets for the CEGMA reproduction.

PYTHON ?= python

.PHONY: install test test-all lint bench bench-quick bench-search bench-compare bench-trend examples experiments summary clean

install:
	pip install -e .

# Default run excludes tests marked "slow" (pyproject addopts).
test:
	$(PYTHON) -m pytest tests/

# Everything, including the slow equivalence sweeps.
test-all:
	$(PYTHON) -m pytest tests/ -m ""

# Same check CI runs (pip install ruff).
lint:
	ruff check src tests

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# EMF + harness microbenchmarks; writes BENCH_emf.json / BENCH_harness.json
# and appends each run to results/obs/bench_history/.
bench-quick:
	$(PYTHON) -m repro bench --quick

# Serving-pipeline benchmark (flat query loop vs. staged pipeline);
# writes BENCH_search.json with queries/sec and p50/p99 latency.
bench-search:
	$(PYTHON) -m repro bench --quick --only search

# Gate the newest recorded bench run against its config-matching
# predecessor: exit 1 on deterministic check drift, 2 on a statistical
# timing regression (or no comparable baseline).
bench-compare:
	$(PYTHON) -m repro obs bench compare

# Per-metric history with changepoints marked.
bench-trend:
	$(PYTHON) -m repro obs bench trend

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		$(PYTHON) $$script || exit 1; \
		echo; \
	done

experiments:
	$(PYTHON) -m repro experiments all

summary:
	$(PYTHON) -m repro experiments summary

artifacts:
	$(PYTHON) -m repro experiments all > results/all_experiments.txt
	$(PYTHON) -m repro experiments summary --output results/summary.json

clean:
	find . -type d -name __pycache__ -prune -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis *.egg-info src/*.egg-info
