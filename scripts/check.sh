#!/bin/sh
# check.sh runs the repository's full verification gate — the same steps as
# `make check` — for environments without make.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt"
out=$(gofmt -l .)
if [ -n "$out" ]; then
	echo "gofmt needed on:"
	echo "$out"
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test (invariant auditor on in every suite)"
go test ./...

echo "== go test -race ./internal/..."
go test -race ./internal/...

echo "== perfbench-check (benchmark module output checks)"
(cd perfbench && go test ./...)

echo "== bench-smoke (runner memoization end to end)"
./scripts/bench_smoke.sh

echo "== events-smoke (event-stream determinism end to end)"
./scripts/events_smoke.sh

echo "== fault-smoke (fault injection + recovery end to end)"
./scripts/fault_smoke.sh

echo "== bench-scale-smoke (scale benchmarks complete and emit JSON)"
./scripts/bench_scale.sh -short /dev/null

echo "== matrix-smoke (declarative scenario specs + SLO gating end to end)"
./scripts/matrix_smoke.sh

echo "== prof-smoke (span profiler + Chrome trace end to end)"
./scripts/prof_smoke.sh

echo "== shard-smoke (sharded engine: determinism + loan-conflict path end to end)"
./scripts/shard_smoke.sh

echo "== bench-guard (perf trajectory within budget; selftest proves it can fail)"
./scripts/bench_guard.sh
./scripts/bench_guard.sh -selftest

echo "OK"
