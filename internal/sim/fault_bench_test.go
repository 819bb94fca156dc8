package sim

import (
	"testing"

	"lyra/internal/fault"
	"lyra/internal/job"
)

// BenchmarkEngineFaults measures the engine replaying a 300-job day with
// fault injection disabled (nil *fault.Plan — the headline configuration)
// and with a crash+straggler plan active. The "faults=off" case must match
// BenchmarkEngineAudit's audit=off and BenchmarkEngineEvents' events=off
// cases: a disabled plan costs one Enabled check at Run start and nothing
// per event. See DESIGN.md §8.
func BenchmarkEngineFaults(b *testing.B) {
	plans := map[string]*fault.Plan{
		"off": nil,
		"on":  {Seed: 1, ServerMTBF: 43200, ServerMTTR: 600, StragglerFrac: 0.1},
	}
	for _, name := range []string{"off", "on"} {
		b.Run("faults="+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tp := testTopo(8, 0, fifoSched{})
				jobs := make([]*job.Job, 0, 300)
				for k := 0; k < 300; k++ {
					jobs = append(jobs, job.New(k, int64(k*251%86400), job.Generic, 1+k%4, 1, 1, float64(300+97*k%3600)))
				}
				e := New(tp, jobs, 172800, Config{Faults: plans[name]})
				b.StartTimer()
				e.Run()
			}
		})
	}
}
