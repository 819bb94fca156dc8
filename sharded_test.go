package lyra_test

import (
	"bytes"
	"testing"

	"lyra"
)

// TestShardedDeterministicAcrossRuns runs a genuinely concurrent 4-shard
// topology twice and requires byte-identical event streams: the per-shard
// scheduler goroutines may interleave arbitrarily, but the ID-ordered
// commit merge must erase every trace of the interleaving.
func TestShardedDeterministicAcrossRuns(t *testing.T) {
	tcfg := lyra.DefaultTraceConfig(11)
	tcfg.Days = 1
	tcfg.TrainingGPUs = 96
	tr := lyra.GenerateTrace(tcfg)

	cfg := lyra.DefaultConfig()
	cfg.Cluster = lyra.ClusterConfig{TrainingServers: 12, InferenceServers: 8}
	cfg.Events = true
	cfg.Audit = true
	cfg.SchedInterval = 300
	cfg.TrainingShards = 2
	cfg.InferenceShards = 2

	var streams [][]byte
	for i := 0; i < 2; i++ {
		r, err := lyra.Run(cfg, tr)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		streams = append(streams, r.Events)
	}
	if !bytes.Equal(streams[0], streams[1]) {
		d := firstDiff(streams[0], streams[1])
		t.Fatalf("4-shard run not deterministic: first difference at byte %d (context: %q vs %q)",
			d, window(streams[0], d), window(streams[1], d))
	}
	if !bytes.Contains(streams[0], []byte(`"kind":"arb.route"`)) {
		t.Fatalf("multi-shard run emitted no arb.route events")
	}
}

// TestShardedConflictStorm drives a topology where several training shards
// develop loan demand in the same arbitration epoch, so later shards
// propose lowest-ID servers an earlier shard already took against the
// shared stale snapshot. The lowest-ID shard commits; every other shard
// must detect the conflict, emit the loan-conflict-retry decision, and
// converge — with the full invariant suite (including cross-shard GPU
// conservation) auditing every event. The arbiter charges every shard's
// loans against the global headroom, so a conflict needs an earlier shard
// whose demand is below the headroom: three shards at load 1.5 with the
// whole inference pool loanable give exactly that.
func TestShardedConflictStorm(t *testing.T) {
	tcfg := lyra.DefaultTraceConfig(3)
	tcfg.Days = 1
	tcfg.TrainingGPUs = 96
	tcfg.LoadFactor = 1.5
	tr := lyra.GenerateTrace(tcfg)

	cfg := lyra.DefaultConfig()
	cfg.Cluster = lyra.ClusterConfig{TrainingServers: 12, InferenceServers: 12}
	cfg.Events = true
	cfg.Audit = true
	cfg.SchedInterval = 300
	cfg.Headroom = lyra.Zero // loan the whole inference pool: maximal contention
	cfg.TrainingShards = 3
	cfg.InferenceShards = 3

	r, err := lyra.Run(cfg, tr)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	conflicts := bytes.Count(r.Events, []byte(`"kind":"arb.conflict"`))
	if conflicts == 0 {
		t.Fatalf("conflict storm produced no arb.conflict events (loans: %d)",
			bytes.Count(r.Events, []byte(`"kind":"orch.loan"`)))
	}
	if !bytes.Contains(r.Events, []byte(`"cause":"loan-conflict-retry"`)) {
		t.Fatalf("arb.conflict events missing the loan-conflict-retry cause")
	}
	// The audit layer would have panicked the run on any conservation
	// violation; reaching here with completions proves convergence.
	if r.Completed == 0 {
		t.Fatalf("no jobs completed under the conflict storm")
	}
}
