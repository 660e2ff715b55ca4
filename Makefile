.PHONY: all build test bench bench-smoke bench-diff perf-smoke crash-smoke serve-smoke trace-smoke journal-smoke lint legality-smoke check clean

all: build

build:
	dune build

test: build
	dune runtest

# Full benchmark sweep (figures 8-14, table 1, ablation, microbench).
# TIR_JOBS controls the evaluation pool size (default: all cores).
bench: build
	dune exec bench/main.exe

# Fast smoke run: truncated workload set and trial budgets, plus --check,
# which exits non-zero if any reported latency is non-finite or <= 0; the
# emitted BENCH_results.json is then validated against schema 9, including
# the hot-path perf gate against the committed pre-refactor baseline and
# the cost-model rank-correlation floor.
bench-smoke: build
	BENCH_FAST=1 dune exec bench/main.exe -- --check
	dune exec tools/validate_bench.exe BENCH_results.json BENCH_baseline.json

# Regression gate between the freshly-emitted BENCH_results.json (from
# bench-smoke, which `check` runs first) and the committed smoke-run
# snapshot: schema-aware per-metric tolerances (throughput floors, hit
# rates, busy_frac, per-row latencies/GFLOPS). The second leg asserts
# the gate itself: with an injected regression it must exit non-zero.
bench-diff: build
	dune exec tools/bench_diff.exe -- BENCH_results.json BENCH_diff_baseline.json
	! dune exec tools/bench_diff.exe -- BENCH_results.json \
	  BENCH_diff_baseline.json --inject-regression 2>/dev/null

# Hot-path perf gate alone: rerun the legacy-vs-optimized pipeline
# comparison (full proposal stream — BENCH_ONLY skips the figure sweeps,
# not the stream) and enforce BENCH_baseline.json: bit-identical
# classification tallies, live speedup >= floor_speedup, optimized
# throughput >= floor_candidates_per_s.
perf-smoke: build
	BENCH_ONLY=hotpath dune exec bench/main.exe -- --check
	dune exec tools/validate_bench.exe BENCH_results.json BENCH_baseline.json

# Kill-and-resume smoke test of the session layer through the CLI: a tune
# halted after one committed generation must exit 8, report as resumable,
# finish under --resume, and then report as completed; a tune under
# injected faults (TIR_FAULTS) must still complete.
crash-smoke: build
	rm -f /tmp/tir_crash_smoke.wal
	dune exec bin/tensorir_cli.exe -- tune GMM --trials 16 \
	  --session /tmp/tir_crash_smoke.wal --halt-after 1; test $$? -eq 8
	dune exec bin/tensorir_cli.exe -- session status /tmp/tir_crash_smoke.wal \
	  | grep -q resumable
	dune exec bin/tensorir_cli.exe -- tune GMM \
	  --session /tmp/tir_crash_smoke.wal --resume
	dune exec bin/tensorir_cli.exe -- session status /tmp/tir_crash_smoke.wal \
	  | grep -q completed
	rm -f /tmp/tir_crash_smoke.wal
	TIR_FAULTS=0.2:42 dune exec bin/tensorir_cli.exe -- tune GMM --trials 16

# Multi-tenant server smoke test through the CLI: three jobs with mixed
# priorities are submitted to a queue directory; a serve killed at a step
# budget must exit 8 and leave resumable work in running/; a second serve
# must drain the queue; a re-submitted workload must complete via a
# cross-tenant database replay; and a malformed job must dead-letter to
# failed/ with a diagnostic rather than wedge the server.
serve-smoke: build
	rm -rf /tmp/tir_serve_smoke
	dune exec bin/tensorir_cli.exe -- submit --queue /tmp/tir_serve_smoke \
	  GMM --trials 16 --seed 3 --priority 2
	dune exec bin/tensorir_cli.exe -- submit --queue /tmp/tir_serve_smoke \
	  C2D --trials 16 --seed 5
	dune exec bin/tensorir_cli.exe -- submit --queue /tmp/tir_serve_smoke \
	  C1D --trials 16 --seed 7
	printf 'workload=GMM\nbogus=key\n' > /tmp/tir_serve_smoke/pending/broken.job
	dune exec bin/tensorir_cli.exe -- serve --queue /tmp/tir_serve_smoke \
	  --drain --max-steps 4 --metrics-out /tmp/tir_serve_smoke/metrics.json; \
	  test $$? -eq 8
	dune exec bin/tensorir_cli.exe -- jobs --queue /tmp/tir_serve_smoke \
	  | grep -q running
	dune exec bin/tensorir_cli.exe -- serve --queue /tmp/tir_serve_smoke \
	  --drain --metrics-out /tmp/tir_serve_smoke/metrics.json
	dune exec bin/tensorir_cli.exe -- jobs --queue /tmp/tir_serve_smoke \
	  | grep -q "broken.*failed"
	test $$(dune exec bin/tensorir_cli.exe -- jobs --queue /tmp/tir_serve_smoke \
	  | grep -c done) -eq 3
	dune exec bin/tensorir_cli.exe -- submit --queue /tmp/tir_serve_smoke \
	  GMM --trials 16 --seed 9 --name gmm-replay
	dune exec bin/tensorir_cli.exe -- serve --queue /tmp/tir_serve_smoke \
	  --drain --metrics-out /tmp/tir_serve_smoke/metrics.json
	grep -q '"db.replayed":[1-9]' /tmp/tir_serve_smoke/metrics.json
	dune exec bin/tensorir_cli.exe -- jobs --queue /tmp/tir_serve_smoke \
	  | grep -q "gmm-replay.*done"
	rm -rf /tmp/tir_serve_smoke

# Observability smoke test: a short serve run with tracing and telemetry
# enabled must produce a validating Chrome trace (well-formed JSON,
# monotone timestamps, tenant/job context on every event) and a
# telemetry snapshot that `tensorir top` can render.
trace-smoke: build
	rm -rf /tmp/tir_trace_smoke
	dune exec bin/tensorir_cli.exe -- submit --queue /tmp/tir_trace_smoke \
	  GMM --trials 16 --seed 11
	dune exec bin/tensorir_cli.exe -- serve --queue /tmp/tir_trace_smoke \
	  --drain --trace-out /tmp/tir_trace_smoke/trace.json \
	  --telemetry-out /tmp/tir_trace_smoke/telemetry.prom
	dune exec tools/validate_trace.exe /tmp/tir_trace_smoke/trace.json
	dune exec bin/tensorir_cli.exe -- top /tmp/tir_trace_smoke/telemetry.prom \
	  | grep -q "queue:"
	rm -rf /tmp/tir_trace_smoke

# Search-journal smoke test through the CLI: a traced tune exports a
# journal that `report` renders with all 16 trials measured and a
# monotone best-so-far curve; a session run halted after one generation
# (exit 8) still leaves a journal that parses.
journal-smoke: build
	rm -f /tmp/tir_journal_smoke.jsonl /tmp/tir_journal_smoke_halt.jsonl \
	  /tmp/tir_journal_smoke.wal
	dune exec bin/tensorir_cli.exe -- tune GMM --trials 16 \
	  --journal /tmp/tir_journal_smoke.jsonl
	dune exec bin/tensorir_cli.exe -- report /tmp/tir_journal_smoke.jsonl \
	  > /tmp/tir_journal_smoke.txt
	grep -q 'measured 16 ' /tmp/tir_journal_smoke.txt
	grep -q 'monotone: true' /tmp/tir_journal_smoke.txt
	dune exec bin/tensorir_cli.exe -- tune GMM --trials 16 \
	  --session /tmp/tir_journal_smoke.wal --halt-after 1 \
	  --journal /tmp/tir_journal_smoke_halt.jsonl; test $$? -eq 8
	dune exec bin/tensorir_cli.exe -- report /tmp/tir_journal_smoke_halt.jsonl \
	  > /dev/null
	rm -f /tmp/tir_journal_smoke.jsonl /tmp/tir_journal_smoke_halt.jsonl \
	  /tmp/tir_journal_smoke.wal /tmp/tir_journal_smoke.txt

# Semantic static analysis (data races, region soundness, bounds) over
# every seed workload and the example scripts; non-zero exit on findings.
lint: build
	dune exec bin/tensorir_cli.exe -- lint --all examples/*.tir

# Legality prover smoke test through the lint JSON interface: the example
# scripts must produce a clean machine-readable report (no error
# diagnostics, no non-advisory illegal item), and the known-illegal
# fixture (parallel reduction race + loop-reversing dependence) must exit
# non-zero with an illegal parallel item and an illegal reorder advisory,
# each naming its loop and block.
legality-smoke: build
	dune exec bin/tensorir_cli.exe -- lint --json examples/*.tir \
	  > /tmp/tir_lint_clean.json
	dune exec tools/validate_lint.exe -- --clean /tmp/tir_lint_clean.json
	! dune exec bin/tensorir_cli.exe -- lint --json \
	  test/fixtures/illegal_mix.tir > /tmp/tir_lint_illegal.json
	dune exec tools/validate_lint.exe -- --expect-illegal \
	  /tmp/tir_lint_illegal.json
	rm -f /tmp/tir_lint_clean.json /tmp/tir_lint_illegal.json

# The full pre-merge gate: build, unit + property tests, lint, bench smoke
# run (+ the regression diff against the committed snapshot),
# kill-and-resume smoke run, multi-tenant serve smoke run, the
# tracing/telemetry smoke run, and the search-journal smoke run.
check: build
	dune runtest
	$(MAKE) lint
	$(MAKE) legality-smoke
	$(MAKE) bench-smoke
	$(MAKE) bench-diff
	$(MAKE) crash-smoke
	$(MAKE) serve-smoke
	$(MAKE) trace-smoke
	$(MAKE) journal-smoke

clean:
	dune clean
