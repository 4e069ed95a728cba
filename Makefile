.PHONY: all build test check obs-check torture-check stress-check perfbench-check fmt fmt-check bench bench-smoke matrix matrix-baseline matrix-check serve soak-check ci clean

all: build

build:
	dune build

test: build
	dune runtest

# Smoke target: tier-1 build + tests, then the instrumented stats
# workload over the paper's gates schema.
check: test
	dune exec bin/compo_cli.exe -- stats schemas/gates.ddl

# Observability check, two halves.  (1) In-process: run the
# instrumented gates workload with metrics on, export the registry as
# OpenMetrics, and validate the exposition against the text-format
# grammar with the checker in test/.  (2) Over the wire: boot a live
# server, pull its registry with a trace-stamped `compo stats
# --connect`, validate that exposition the same way, and require the
# server-telemetry families (net.* request latency and request
# accounting) to be present.
OBS_SOCK := /tmp/compo-obs.sock
obs-check: build
	dune exec bin/compo_cli.exe -- stats schemas/gates.ddl --format=openmetrics > obs-check.om
	dune exec test/check_openmetrics.exe -- obs-check.om
	rm -f $(OBS_SOCK)
	./_build/default/bin/compo_server.exe --socket $(OBS_SOCK) --demo gates --quiet & \
	  srv=$$!; \
	  for i in $$(seq 1 50); do [ -S $(OBS_SOCK) ] && break; sleep 0.1; done; \
	  [ -S $(OBS_SOCK) ] || { echo "obs-check: server never bound $(OBS_SOCK)"; kill $$srv 2>/dev/null; exit 1; }; \
	  COMPO_TRACE_SAMPLE=1 ./_build/default/bin/compo_cli.exe stats --connect $(OBS_SOCK) --format=openmetrics > obs-check.live.om; \
	  rc=$$?; \
	  kill -TERM $$srv; \
	  wait $$srv; drained=$$?; \
	  [ $$rc -eq 0 ] || { echo "obs-check: live stats over the wire failed"; exit 1; }; \
	  [ $$drained -eq 0 ] || { echo "obs-check: server did not drain cleanly (exit $$drained)"; exit 1; }
	dune exec test/check_openmetrics.exe -- obs-check.live.om
	grep -q '^# TYPE compo_net_request_seconds histogram' obs-check.live.om
	grep -q '^# TYPE compo_net_requests counter' obs-check.live.om
	rm -f obs-check.om obs-check.live.om

# Crash-recovery torture: enumerate every registered failpoint crash
# site against a scripted workload, simulate the crash, reopen the
# journal, and verify the recovered state against an in-memory oracle
# (see docs/DURABILITY.md).  Writes a per-scenario log to
# torture-check.log.
torture-check: build
	dune exec test/torture.exe -- --log torture-check.log

# Server stress: client sessions of random designer operations
# (transactions, autocommit reads and writes, selects) against an
# in-process server, racing for the locks of shared roots; every
# session's recorded history is checked against its model,
# transactional reads of other sessions' chains against the writers'
# commits, and the committed transactions' shared reads and the final
# state against a serial replay in commit order (see
# test/test_server_stress.ml).
# Interleavings differ from run to run, so the harness runs three
# times.  The differential oracle itself (interpreted == compiled over
# 200+ random schemas) runs inside `make test` as the par-diff suite.
stress-check: build
	for i in 1 2 3; do dune exec test/test_server_stress.exe || exit 1; done

# The benchmark's own tests (percentile, window and probe-selection
# vectors, plus a tiny smoke run of every workload in both modes).
perfbench-check: build
	dune build @perfbench/check

# ocamlformat is optional in the build environment; format when it is
# available, otherwise say so and succeed.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune fmt; \
	else \
	  echo "fmt: ocamlformat not installed, skipping"; \
	fi

# Check mode: fail on formatting drift instead of rewriting, with the
# same graceful skip when ocamlformat is absent.
fmt-check:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt; \
	else \
	  echo "fmt-check: ocamlformat not installed, skipping"; \
	fi

bench: build
	dune exec bench/main.exe

# CI-sized benchmark: E1, the chain-walk read sweep E2 (ungated), the
# lock-path experiments E6 (lock inheritance) and E12 (deadlock
# detection), the provenance-overhead sweep E16, the recovery-time sweep
# E17, the compiled-plan sweep E21 and the delta-maintenance sweep E22
# on small grids.  Fails if the compiled engine is less than 3x the
# interpreted one (skips on 1-core runners), if delta-maintained plan
# state is less than 2x full rebuild on the 20% write mix (same 1-core
# skip), or if any experiment does not produce its JSON report.  Smoke
# reports go to _build/bench-smoke/, so the committed full-grid
# BENCH_*.json in the repo root stay untouched.
SMOKE_REPORTS = provenance recovery compiled plan_delta

bench-smoke: build
	dune exec bench/main.exe -- --smoke --check-compiled-speedup 3 --check-delta-speedup 2 E1 E2 E6 E12 E16 E17 E21 E22
	for r in $(SMOKE_REPORTS); do test -s _build/bench-smoke/BENCH_$$r.json || exit 1; done

# Ablation matrix (E20): enumerate configuration cells (index planning
# on/off, compiled engine on/off, delta maintenance on/off, provenance
# on/off, failpoints armed) and run the curated E2/E9/E10 suite in a
# fresh bench subprocess per cell.
# Every outcome, failures included, is a row of the report.  `matrix`
# writes a fresh BENCH_matrix.fresh.json; `matrix-baseline` refreshes
# the committed BENCH_matrix.json.
matrix: build
	dune exec bench/matrix_main.exe -- --smoke --out BENCH_matrix.fresh.json

matrix-baseline: build
	dune exec bench/matrix_main.exe -- --smoke --out BENCH_matrix.json

# CI gate: fresh matrix vs the committed baseline via `compo benchdiff`.
# Outcome flips (ok -> failed, baseline cell missing) gate sharply;
# wall-time gates are deliberately loose (5x over a 1 s floor) because
# the baseline and the runner are different machines — the machine-
# independent signal (eval.node) carries the behavioural diff.  SKIPPED
# rows (older matrices recorded cells a runner had too few cores for)
# render loudly but do not fail.
matrix-check: matrix
	dune exec bin/compo_cli.exe -- benchdiff BENCH_matrix.json BENCH_matrix.fresh.json --time-ratio 5 --time-floor 1

# Interactive server over the demo gates scenario; talk to it with the
# client library or `compo stats --connect /tmp/compo.sock`.
serve: build
	./_build/default/bin/compo_server.exe --socket /tmp/compo.sock --demo gates --populate 256

# Network soak (E19): boot a server on the gates scenario with the
# telemetry stack live (1 ms slow-query threshold, 5 % wire-trace
# sampling), drive >= 120 concurrent client connections for ~10 s with
# the load generator (--check fails on any protocol error), then
# exercise the telemetry surfaces while the server is still up — the
# slow-query log must answer over the wire with at least one captured
# plan, SIGUSR1 must produce a flight-recorder dump that
# `compo flightrec` parses — and finally SIGTERM the server and
# require a clean drain.  The server binary is run straight from
# _build so the signals reach it (dune exec does not forward them).
# The loadgen report, flight-recorder dump and slowlog go to
# _build/soak/, so the committed E19 series in BENCH_server.json and
# `git status` stay untouched.
SOAK_SOCK := /tmp/compo-soak.sock
SOAK_DIR := _build/soak
soak-check: build
	rm -rf $(SOAK_SOCK) $(SOAK_DIR)
	mkdir -p $(SOAK_DIR)
	COMPO_SLOW_MS=1 ./_build/default/bin/compo_server.exe --socket $(SOAK_SOCK) --demo gates --populate 512 --flightrec $(SOAK_DIR)/flightrec.json & \
	  srv=$$!; \
	  for i in $$(seq 1 50); do [ -S $(SOAK_SOCK) ] && break; sleep 0.1; done; \
	  [ -S $(SOAK_SOCK) ] || { echo "soak-check: server never bound $(SOAK_SOCK)"; kill $$srv 2>/dev/null; exit 1; }; \
	  COMPO_TRACE_SAMPLE=0.05 ./_build/default/bench/loadgen.exe --socket $(SOAK_SOCK) --connections 120 --duration 10 --check --json $(SOAK_DIR)/BENCH_server.json; \
	  gen=$$?; \
	  ./_build/default/bin/compo_cli.exe slowlog --connect $(SOAK_SOCK) > $(SOAK_DIR)/slowlog.txt; \
	  slow=$$?; \
	  kill -USR1 $$srv; \
	  for i in $$(seq 1 50); do [ -s $(SOAK_DIR)/flightrec.json ] && break; sleep 0.1; done; \
	  kill -TERM $$srv; \
	  wait $$srv; drained=$$?; \
	  [ $$gen -eq 0 ] || { echo "soak-check: load generator failed"; exit 1; }; \
	  [ $$slow -eq 0 ] || { echo "soak-check: slowlog fetch over the wire failed"; exit 1; }; \
	  grep -q 'slow-query log: [1-9]' $(SOAK_DIR)/slowlog.txt || { echo "soak-check: no slow query captured at a 1 ms threshold"; cat $(SOAK_DIR)/slowlog.txt; exit 1; }; \
	  [ $$drained -eq 0 ] || { echo "soak-check: server did not drain cleanly (exit $$drained)"; exit 1; }
	test -s $(SOAK_DIR)/BENCH_server.json
	grep -q '"per_op"' $(SOAK_DIR)/BENCH_server.json
	test -s $(SOAK_DIR)/flightrec.json
	./_build/default/bin/compo_cli.exe flightrec $(SOAK_DIR)/flightrec.json > $(SOAK_DIR)/flightrec.txt
	grep -q 'flight recorder: [1-9]' $(SOAK_DIR)/flightrec.txt

# Mirrors .github/workflows/ci.yml so the pipeline is reproducible
# locally with one command.
ci: build test perfbench-check fmt-check obs-check torture-check stress-check bench-smoke matrix-check soak-check

# Generated files only: the committed BENCH_*.json results stay.
clean:
	dune clean
	rm -f BENCH_*.metrics.json obs-check.om obs-check.live.om torture-check.log
	rm -f BENCH_matrix.fresh.json
	rm -f *.flightrec.json
