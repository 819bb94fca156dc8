#!/bin/sh
# run.sh builds the benchmark from source inside the checkout and runs it.
#
# Usage (from the repository root):
#   sh perfbench/run.sh --workload prod-elastic --seed 1 --seconds 32 --trace 0
#
# Every build artefact, the Go build cache included, stays under
# .bench_build/ at the repository root, so the benchmark reads and writes
# nothing outside the checkout and needs no network.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
