package sim

import (
	"fmt"
	"testing"

	"lyra/internal/job"
)

// BenchmarkEngineAudit measures the engine replaying a 300-job day with
// the invariant auditor off (the benchmark/headline configuration) and on
// (the test configuration). The "off" case is the hot path the headline
// experiments run: its only added cost over the pre-audit engine is one
// nil check per event. The measured on/off gap is the price the test suite
// pays for full conservation checking; see DESIGN.md.
func BenchmarkEngineAudit(b *testing.B) {
	for _, audit := range []bool{false, true} {
		b.Run(fmt.Sprintf("audit=%v", audit), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tp := testTopo(8, 0, fifoSched{})
				jobs := make([]*job.Job, 0, 300)
				for k := 0; k < 300; k++ {
					jobs = append(jobs, job.New(k, int64(k*251%86400), job.Generic, 1+k%4, 1, 1, float64(300+97*k%3600)))
				}
				e := New(tp, jobs, 172800, Config{Audit: audit})
				b.StartTimer()
				e.Run()
			}
		})
	}
}
