#!/bin/sh
# shard_smoke.sh proves the sharded multi-cluster engine (DESIGN.md §14)
# end to end through the real binaries:
#
#   1. A 4-shard (2 training + 2 inference) run with the invariant auditor
#      on — including cross-shard GPU conservation — must complete cleanly.
#   2. Two separate processes running that topology must record
#      byte-identical JSONL event streams (lyra-events -diff): the
#      concurrent shard-scheduler goroutines may interleave arbitrarily,
#      but the ID-ordered commit merge must erase the interleaving.
#   3. A 3+3 topology at load factor 1.5 must force the arbitrator's
#      optimistic loan protocol through its conflict path: the arbiter
#      charges each shard's loans against the global headroom, so a
#      conflict needs an earlier shard that borrows less than the headroom
#      while a later one still proposes from the stale snapshot. The
#      stream must contain arb.conflict events with the
#      loan-conflict-retry cause, and still audit clean.
set -eu
cd "$(dirname "$0")/.."

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

echo "== shard-smoke: building lyra-sim and lyra-events"
go build -o "$dir/lyra-sim" ./cmd/lyra-sim
go build -o "$dir/lyra-events" ./cmd/lyra-events

run4() {
	"$dir/lyra-sim" -scheme lyra -days 1 -training-servers 12 -inference-servers 8 \
		-training-shards 2 -inference-shards 2 -seed 11 -audit -events "$1" >/dev/null
}

echo "== shard-smoke: 4-shard audited run, two processes"
run4 "$dir/a.jsonl"
run4 "$dir/b.jsonl"

"$dir/lyra-events" -diff "$dir/a.jsonl" "$dir/b.jsonl" || {
	echo "shard-smoke FAILED: concurrent shard goroutines leaked into the stream" >&2
	exit 1
}

routes=$(grep -c '"kind":"arb.route"' "$dir/a.jsonl" || true)
if [ "$routes" -eq 0 ]; then
	echo "shard-smoke FAILED: multi-shard run recorded no arb.route decisions" >&2
	exit 1
fi
echo "4-shard stream deterministic ($routes jobs routed)"

echo "== shard-smoke: forced loan-conflict path (3+3 shards, load factor 1.5)"
"$dir/lyra-sim" -scheme lyra -days 1 -training-servers 12 -inference-servers 12 \
	-training-shards 3 -inference-shards 3 -seed 2 -load 1.5 \
	-audit -events "$dir/storm.jsonl" >/dev/null

conflicts=$(grep -c '"kind":"arb.conflict"' "$dir/storm.jsonl" || true)
if [ "$conflicts" -eq 0 ]; then
	echo "shard-smoke FAILED: conflict storm produced no arb.conflict events" >&2
	exit 1
fi
if ! grep -q '"cause":"loan-conflict-retry"' "$dir/storm.jsonl"; then
	echo "shard-smoke FAILED: arb.conflict events missing the loan-conflict-retry cause" >&2
	exit 1
fi
echo "loan-conflict path exercised ($conflicts conflicts, audit clean)"

echo "shard-smoke OK"
