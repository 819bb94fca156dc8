package sim

import (
	"fmt"
	"testing"

	"lyra/internal/job"
	"lyra/internal/prof"
)

// BenchmarkEngineProf measures the engine replaying a 300-job day with span
// profiling disabled (nil *prof.Profiler — the headline configuration) and
// enabled. The prof=off case must match BenchmarkEngineEvents' events=off
// case: a disabled profiler costs one nil check per span site and nothing
// else, the same discipline as the recorder and the audit layer.
func BenchmarkEngineProf(b *testing.B) {
	profilers := map[string]func() *prof.Profiler{
		"off": func() *prof.Profiler { return nil },
		"on":  func() *prof.Profiler { return prof.New(nil) },
	}
	for _, name := range []string{"off", "on"} {
		b.Run(fmt.Sprintf("prof=%s", name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tp := testTopo(8, 0, fifoSched{})
				jobs := make([]*job.Job, 0, 300)
				for k := 0; k < 300; k++ {
					jobs = append(jobs, job.New(k, int64(k*251%86400), job.Generic, 1+k%4, 1, 1, float64(300+97*k%3600)))
				}
				e := New(tp, jobs, 172800, Config{Prof: profilers[name]()})
				b.StartTimer()
				e.Run()
			}
		})
	}
}
