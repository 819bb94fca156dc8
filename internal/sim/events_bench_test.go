package sim

import (
	"fmt"
	"io"
	"testing"

	"lyra/internal/job"
	"lyra/internal/obs"
)

// BenchmarkEngineEvents measures the engine replaying a 300-job day with the
// event recorder disabled (nil *obs.Recorder — the headline configuration),
// recording into a bounded ring, and streaming JSONL to a discarding writer.
// The "events=off" case must match BenchmarkEngineAudit's audit=off case:
// the disabled recorder costs one nil check per emission site and nothing
// else. See DESIGN.md §7.
func BenchmarkEngineEvents(b *testing.B) {
	sinks := map[string]func() *obs.Recorder{
		"off":   func() *obs.Recorder { return nil },
		"ring":  func() *obs.Recorder { return obs.NewRecorder(obs.NewRing(128)) },
		"jsonl": func() *obs.Recorder { return obs.NewRecorder(obs.NewJSONLWriter(io.Discard)) },
	}
	for _, name := range []string{"off", "ring", "jsonl"} {
		b.Run(fmt.Sprintf("events=%s", name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tp := testTopo(8, 0, fifoSched{})
				jobs := make([]*job.Job, 0, 300)
				for k := 0; k < 300; k++ {
					jobs = append(jobs, job.New(k, int64(k*251%86400), job.Generic, 1+k%4, 1, 1, float64(300+97*k%3600)))
				}
				e := New(tp, jobs, 172800, Config{Obs: sinks[name]()})
				b.StartTimer()
				e.Run()
			}
		})
	}
}
