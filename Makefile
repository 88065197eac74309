# Convenience targets for the reproduction.

.PHONY: install test lint sanitize race static effects obs objprof pdes perfbench-smoke check bench bench-paper perf examples demo clean

install:
	pip install -e .

test:
	PYTHONPATH=src python -m pytest tests/

# Static analysis: ruff (when installed — the CI image has it, minimal
# dev containers may not) plus the repo's own simlint AST pass.  The
# if/else keeps a genuine ruff failure fatal instead of masked.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipping (simlint still runs)"; \
	fi
	PYTHONPATH=src python -m repro.checks lint

# Protocol sanitizer: run the tracked bench workloads at test scale with
# DJVM(sanitize=True); any invariant violation fails the target.
sanitize:
	PYTHONPATH=src python -m repro.checks sanitize

# Happens-before race gate: tracked workloads must report zero races,
# the seeded racy synthetic must be caught, its locked twin must stay
# silent.
race:
	PYTHONPATH=src python -m repro.checks race

# Whole-program static analysis gate: IR verification, sharing/escape
# classification, and the static may-race set — which must contain every
# dynamic FastTrack report on the same run matrix (soundness).
static:
	PYTHONPATH=src python -m repro.checks static

# Interprocedural effect/purity gate: observer purity (EFF1xx), clock
# separation (EFF2xx) and partition safety (EFF3xx) over the
# simulator's own source, checked against the committed effects.json.
effects:
	PYTHONPATH=src python -m repro.checks effects

# Telemetry gate: a bench-scale workload with metrics + span tracing,
# asserting byte-identity against the untraced run, Chrome-trace JSON
# schema validity, and telemetry wall overhead under 15%.
obs:
	PYTHONPATH=src python -m repro.obs gate

# Object-centric inefficiency profiler gate: SOR / Barnes-Hut /
# Water-Spatial report smoke, byte-identity of the run with the
# profiler on vs off, deterministic report ordering, and >= 3 distinct
# patterns with file:line attribution on Water-Spatial.
objprof:
	PYTHONPATH=src python -m repro.obs objprof

# Repository benchmark smoke: its own tests, then one short run of each
# workload at the held-out seed.  Every iteration must match its digest
# in perfbench/expected_digests.json — the only pin on the profiled
# ws-migrate combination (rebalancer + prefetch + objprof + telemetry).
perfbench-smoke:
	python3 -m pytest perfbench -q
	python3 perfbench/run.py --workload bh-adaptive --seed 1000 --seconds 1
	python3 perfbench/run.py --workload ws-migrate --seed 1000 --seconds 1

# The pre-merge gate: lint, tier-1 tests, sanitizer-enabled workloads,
# the happens-before race gate, the static-analysis soundness gate,
# the interprocedural effect/purity gate,
# the telemetry and object-profiler gates, the repository benchmark
# smoke, plus the perf
# regression guard (wall-time within tolerance of BENCH_perf.json,
# determinism checksums unchanged).  Does not rewrite the committed
# baseline — use `make perf` for that.
check: lint
	PYTHONPATH=src python -m pytest tests/
	PYTHONPATH=src python -m repro.checks sanitize
	PYTHONPATH=src python -m repro.checks race
	PYTHONPATH=src python -m repro.checks static
	PYTHONPATH=src python -m repro.checks effects
	PYTHONPATH=src python -m repro.obs gate
	PYTHONPATH=src python -m repro.obs objprof
	$(MAKE) pdes
	$(MAKE) perfbench-smoke
	PYTHONPATH=src python benchmarks/perf_harness.py --repeats 3 --scale smoke --output /tmp/BENCH_perf.check.json
	PYTHONPATH=src python benchmarks/check_regression.py BENCH_perf.json /tmp/BENCH_perf.check.json

# Partitioned-kernel gate: byte-identity of the conservative parallel
# kernel (2 and 4 partitions) and the vectorized replay engine against
# the serial scalar oracle on the paper workloads and randomized
# programs.  The scale smoke in `check`'s perf step re-asserts identity
# at bench scale.
pdes:
	PYTHONPATH=src python -m pytest tests/sim/test_partition_kernel.py tests/runtime/test_vector_replay.py -q

bench:
	pytest benchmarks/ --benchmark-only

bench-paper:
	REPRO_PAPER_SCALE=1 pytest benchmarks/ --benchmark-only

# Regenerate the tracked perf report, guarding against wall-time
# regressions (>20% by default; override with PERF_TOLERANCE=0.3 etc.)
# relative to the committed BENCH_perf.json baseline.
perf:
	PYTHONPATH=src python benchmarks/perf_harness.py --output BENCH_perf.new.json
	PYTHONPATH=src python benchmarks/check_regression.py BENCH_perf.json BENCH_perf.new.json
	mv BENCH_perf.new.json BENCH_perf.json

examples:
	for f in examples/*.py; do echo "== $$f =="; PYTHONPATH=src python $$f || exit 1; echo; done

demo:
	python -m repro demo

clean:
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
	rm -rf .pytest_cache benchmarks/results .hypothesis
