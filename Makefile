GO ?= go

.PHONY: all check fmt vet build test race perfbench-check bench bench-smoke events-smoke fault-smoke bench-scale bench-scale-smoke matrix-smoke prof-smoke shard-smoke bench-guard bench-append fuzz

all: check

# check is the default gate: formatting, vet, build, the full test suite
# (every package runs with the invariant auditor on), the race detector
# over the internal packages, and the runner-memoization, event-stream,
# fault-recovery, scale-benchmark, scenario-matrix and profiler smoke
# tests, the benchmark module's own output checks, plus the perf-regression
# guard (and its selftest).
check: fmt vet build test race perfbench-check bench-smoke events-smoke fault-smoke bench-scale-smoke matrix-smoke prof-smoke shard-smoke bench-guard

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/...

# perfbench-check runs the benchmark module's output checks and smokes
# (its own Go module, so the root `go test ./...` does not build it): an
# API change that breaks the benchmark fails here, not in the next
# benchmark run.
perfbench-check:
	cd perfbench && $(GO) test ./...

# bench-smoke proves the experiment runner's memoization end to end: one
# experiment run twice through one pool must serve the second pass from the
# cache (Hits > 0, no extra simulations executed).
bench-smoke:
	@./scripts/bench_smoke.sh

# events-smoke proves the event-stream determinism contract through the real
# binaries: one scenario run twice with -events must record byte-identical
# JSONL, and lyra-events must reconstruct a complete job lifecycle from it.
events-smoke:
	@./scripts/events_smoke.sh

# fault-smoke proves the fault layer end to end: crash-heavy simulator and
# testbed runs with -audit -events must exit 0 with zero lost jobs, report
# recoveries, and (simulator) stay byte-deterministic under faults.
fault-smoke:
	@./scripts/fault_smoke.sh

# bench-scale runs BenchmarkBestFit / BenchmarkEpoch at the 1x/10x/100x
# tiers (100x = one hundred times the paper's production cluster, a capped
# window of epochs) and prints the results as JSON — the numbers recorded
# in BENCH_cluster.json (the repo's perf trajectory for the indexed cluster
# core). Append an entry there after intentional perf-relevant changes.
bench-scale:
	@./scripts/bench_scale.sh

# bench-scale-smoke is the `check` wiring: one short run (1x plus a short
# 100x window) asserting the scale benchmarks still complete, the 100x tier
# stays feasible, and the JSON pipeline works.
bench-scale-smoke:
	@./scripts/bench_scale.sh -short /dev/null

# matrix-smoke proves the declarative scenario harness end to end: the
# shipped pack (testdata/scenarios/) dry-compiles, the smoke spec's
# scenario×scheme matrix meets its SLO assertions through the real
# lyra-matrix binary, and the same matrix with bounds tightened 100x fails
# with the violations spelled out (the gate demonstrably can fail).
matrix-smoke:
	@./scripts/matrix_smoke.sh

# prof-smoke proves the span profiler end to end through lyra-sim: -prof
# attributes >= 90% of wall time to named phases, -trace emits valid Chrome
# trace-event JSON, and turning profiling on leaves the deterministic
# -events stream byte-identical.
prof-smoke:
	@./scripts/prof_smoke.sh

# shard-smoke proves the sharded topology of the one simulation engine
# (DESIGN.md §14) end to end: a 4-shard audited run is byte-deterministic
# across two processes (lyra-events -diff over concurrent shard
# goroutines), and a contended 3+3 topology forces the arbitrator's
# loan-conflict retry path under the global headroom cap, with the
# cross-shard conservation auditor on.
shard-smoke:
	@./scripts/shard_smoke.sh

# bench-guard is the perf-regression gate over BENCH_cluster.json: the
# latest recorded entry must stay within a 25% ns/epoch budget of the one
# before it, and the selftest proves a doctored 2x-slower entry fails.
bench-guard:
	@./scripts/bench_guard.sh
	@./scripts/bench_guard.sh -selftest

# bench-append records one perf-trajectory point: full scale benchmarks,
# appended to BENCH_cluster.json as a labeled dated entry, then guarded.
# Usage: make bench-append LABEL="what changed"
bench-append:
	@./scripts/bench_append.sh "$(LABEL)"

# bench runs the audit-overhead and experiment benchmarks (audit off: the
# numbers quoted in DESIGN.md come from BenchmarkEngineAudit).
bench:
	$(GO) test -run NONE -bench BenchmarkEngineAudit -benchtime 10x ./internal/sim/

# fuzz explores random start/scale/preempt/reclaim interleavings,
# incremental-vs-rescan differential workloads, banded-vs-full-table MCKP
# instances, table-driven-vs-reference Pollux searches and fault-spec
# ParsePlan/String round trips beyond the seed corpora that already run
# under `make test`.
fuzz:
	$(GO) test -fuzz FuzzChaosInterleavings -fuzztime 60s ./internal/sim/
	$(GO) test -fuzz FuzzIncrementalVsRescan -fuzztime 60s ./internal/sched/
	$(GO) test -fuzz FuzzMultiChoiceVsFullTable -fuzztime 60s ./internal/knapsack/
	$(GO) test -fuzz FuzzPolluxVsReference -fuzztime 60s ./internal/alloc/
	$(GO) test -fuzz FuzzParsePlan -fuzztime 60s ./internal/fault/
