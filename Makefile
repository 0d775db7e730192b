# Developer entry points.  `make check` is the fast gate (tier-1 tests
# + compileall + perf smoke); `make bench` regenerates every paper
# artifact; `make bench-perf` refreshes the committed BENCH_*.json
# wall-clock baselines.

PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: check test chaos bench bench-perf bench-compile bench-parallel bench-serve bench-obs stream-smoke profile clean

check:
	sh scripts/check.sh

test:
	PYTHONPATH=$(PYTHONPATH) python -m pytest -x -q

chaos:
	PYTHONPATH=$(PYTHONPATH) python -m repro.resilience.smoke

bench:
	PYTHONPATH=$(PYTHONPATH) python -m pytest benchmarks/ --benchmark-only -q

bench-perf:
	PYTHONPATH=$(PYTHONPATH) python -m benchmarks.perf --out-dir benchmarks/perf

# The compile suite measures compiled inference against the tape and
# eager paths, plus the cost of one cold compile.
bench-compile:
	PYTHONPATH=$(PYTHONPATH) python -m benchmarks.perf --suite compile --out-dir benchmarks/perf

bench-parallel:
	PYTHONPATH=$(PYTHONPATH) python -m benchmarks.perf --suite parallel --out-dir benchmarks/perf

bench-serve:
	PYTHONPATH=$(PYTHONPATH) python -m benchmarks.perf --suite serve --out-dir benchmarks/perf

bench-obs:
	PYTHONPATH=$(PYTHONPATH) python -m benchmarks.perf --suite obs --out-dir benchmarks/perf

# End-to-end continual-ops scenario: drift detect -> label queue ->
# shadow retrain -> atomic promote, with poison-rollback + chaos legs.
stream-smoke:
	PYTHONPATH=$(PYTHONPATH) python -m repro.stream.smoke

profile:
	PYTHONPATH=$(PYTHONPATH) python -m pytest benchmarks/ --benchmark-only -q -s --profile

clean:
	rm -rf src/*.egg-info build dist .pytest_cache
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
