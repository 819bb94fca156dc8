package lyra_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"lyra"
)

// TestGoldenEventStream replays a fixed audited scenario and requires the
// obs event stream to be byte-identical to testdata/golden_events.jsonl,
// which was generated before the indexed-cluster refactor. This is the
// before/after equivalence proof for the maintain-on-write cluster core: a
// single placement choice, capacity count, or loan decision differing from
// the recompute-on-read implementation shifts at least one event and fails
// the comparison. The scenario runs twice: unsharded (TrainingShards 0)
// and as the explicit 1+1 topology the unsharded config maps to — both
// must produce the one golden stream. Regenerate the file only for an
// intentional behavior change, by writing r.Events from the exact
// scenario below.
//
// The pollux case runs the same trace under the Pollux baseline with
// elastic scaling and tuned jobs on (as in the multitenant pack) against
// testdata/golden_events_pollux.jsonl, generated from the direct-
// evaluation genetic search before it became table-driven: one differing
// search decision moves a start or a resize and fails the comparison.
func TestGoldenEventStream(t *testing.T) {
	tcfg := lyra.DefaultTraceConfig(7)
	tcfg.Days = 1
	tcfg.TrainingGPUs = 64
	tr := lyra.GenerateTrace(tcfg)

	base := func() lyra.Config {
		cfg := lyra.DefaultConfig()
		cfg.Cluster = lyra.ClusterConfig{TrainingServers: 8, InferenceServers: 8}
		cfg.Events = true
		cfg.SchedInterval = 300
		cfg.Audit = true
		return cfg
	}
	type golden struct {
		name, file string
		cfg        lyra.Config
	}
	var cases []golden
	for _, shards := range []int{0, 1} {
		cfg := base()
		cfg.TrainingShards, cfg.InferenceShards = shards, shards
		cases = append(cases, golden{fmt.Sprintf("shards-%d+%d", shards, shards), "golden_events.jsonl", cfg})
	}
	pollux := base()
	pollux.Scheduler = lyra.SchedPollux
	pollux.Loaning, pollux.Tuned = false, true
	cases = append(cases, golden{"pollux", "golden_events_pollux.jsonl", pollux})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.file))
			if err != nil {
				t.Fatalf("read golden file: %v", err)
			}
			r, err := lyra.Run(c.cfg, tr)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !bytes.Equal(r.Events, want) {
				d := firstDiff(r.Events, want)
				t.Fatalf("event stream diverged from golden output %s: got %d bytes, want %d; first difference at byte %d (context: %q vs %q)",
					c.file, len(r.Events), len(want), d, window(r.Events, d), window(want, d))
			}
		})
	}
}

// firstDiff returns the index of the first differing byte.
func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// window returns a short slice of s around offset i for error context.
func window(s []byte, i int) string {
	lo, hi := i-40, i+40
	if lo < 0 {
		lo = 0
	}
	if hi > len(s) {
		hi = len(s)
	}
	return string(s[lo:hi])
}
