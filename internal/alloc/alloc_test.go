package alloc

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"lyra/internal/job"
)

// tableJobs builds the elastic jobs of Table 2: A (w in [2,6], min running
// time 50) and B (w in [2,6], min running time 20), 1 GPU per worker.
func tableJobs2() (*job.Job, *job.Job) {
	a := job.New(1, 0, job.Generic, 1, 2, 6, 50)
	a.Elastic = true
	b := job.New(2, 0, job.Generic, 1, 2, 6, 20)
	b.Elastic = true
	return a, b
}

// table4Jobs builds Table 4: A gets max demand 3 and min running time 100.
func table4Jobs() (*job.Job, *job.Job) {
	a := job.New(1, 0, job.Generic, 1, 2, 3, 100)
	a.Elastic = true
	b := job.New(2, 0, job.Generic, 1, 2, 6, 20)
	b.Elastic = true
	return a, b
}

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestTable3RuntimesAtAllocations(t *testing.T) {
	a, b := tableJobs2()
	// Solution 1: A=6, B=2 -> A runs 50, B runs (partially at 2, then 6).
	// Initial running times at the shown allocations (Table 3 computes
	// the final JCTs with reallocation; here we verify the building
	// blocks: inverse proportionality).
	if !almostEqual(a.RuntimeAt(6, job.Linear), 50) || !almostEqual(a.RuntimeAt(2, job.Linear), 150) {
		t.Errorf("A runtimes: %v @6, %v @2", a.RuntimeAt(6, job.Linear), a.RuntimeAt(2, job.Linear))
	}
	if !almostEqual(b.RuntimeAt(6, job.Linear), 20) || !almostEqual(b.RuntimeAt(4, job.Linear), 30) {
		t.Errorf("B runtimes: %v @6, %v @4", b.RuntimeAt(6, job.Linear), b.RuntimeAt(4, job.Linear))
	}
}

func TestFigure6JCTReductionValues(t *testing.T) {
	// Figure 6 lists job B's JCT reduction values for 1..4 extra workers
	// as 20, 30, 36, 40 and job A's single extra worker as 50.
	a, b := table4Jobs()
	wantB := []float64{20, 30, 36, 40}
	for k := 1; k <= 4; k++ {
		if got := JCTReduction(b, k, job.Linear); !almostEqual(got, wantB[k-1]) {
			t.Errorf("B reduction(+%d) = %v, want %v", k, got, wantB[k-1])
		}
	}
	if got := JCTReduction(a, 1, job.Linear); !almostEqual(got, 50) {
		t.Errorf("A reduction(+1) = %v, want 50", got)
	}
}

func TestJCTReductionUsesRemainingWork(t *testing.T) {
	_, b := table4Jobs()
	full := JCTReduction(b, 2, job.Linear)
	b.Remaining = b.Work / 2
	if got := JCTReduction(b, 2, job.Linear); !almostEqual(got, full/2) {
		t.Errorf("half-done job reduction = %v, want %v", got, full/2)
	}
}

func TestPhase2PicksMaxTotalReduction(t *testing.T) {
	// Table 4 jobs with 4 spare GPUs; A on 2-GPU workers as in Figure 6.
	a := job.New(1, 0, job.Generic, 2, 2, 3, 100)
	a.Elastic = true
	_, b := table4Jobs()
	got := Phase2([]*job.Job{a, b}, 4, job.Linear, Tuning{}, nil)
	// Options: A+1 (2 GPUs, 50) + B+2 (2 GPUs, 30) = 80 beats B+4 (40)
	// and A+1 + B+1 (70).
	want := map[int]int{1: 1, 2: 2}
	if len(got) != len(want) {
		t.Fatalf("Phase2 = %v, want %v", got, want)
	}
	for _, e := range got {
		if want[e.ID] != e.Extra {
			t.Errorf("job %d extra = %d, want %d", e.ID, e.Extra, want[e.ID])
		}
	}
}

func TestPhase2EverythingFitsShortcut(t *testing.T) {
	a, b := tableJobs2()
	got := Phase2([]*job.Job{a, b}, 100, job.Linear, Tuning{}, nil)
	if len(got) != 2 || got[0].Extra != a.FlexRange() || got[1].Extra != b.FlexRange() {
		t.Errorf("abundant capacity should max everyone: %v", got)
	}
}

func TestPhase2ZeroCapacity(t *testing.T) {
	a, b := tableJobs2()
	if got := Phase2([]*job.Job{a, b}, 0, job.Linear, Tuning{}, nil); got != nil {
		t.Errorf("zero capacity: %v", got)
	}
}

func TestPhase2RespectsCapacity(t *testing.T) {
	a, b := tableJobs2()
	a.GPUsPerWorker, b.GPUsPerWorker = 2, 2
	for _, capGPUs := range []int{1, 2, 3, 5, 7, 9} {
		got := Phase2([]*job.Job{a, b}, capGPUs, job.Linear, Tuning{}, nil)
		total := 0
		for _, e := range got {
			total += e.Extra * 2
		}
		if total > capGPUs {
			t.Errorf("cap %d: allocated %d GPUs", capGPUs, total)
		}
	}
}

func TestPhase2StabilityBonusPreventsChurn(t *testing.T) {
	// Two identical elastic jobs, capacity for one extra worker. The job
	// currently holding a flexible worker must keep it even though the
	// other job's value is (fractionally) identical.
	a, b := tableJobs2()
	b.Work = a.Work // identical
	b.Remaining = b.Work
	b.Workers = []job.Worker{
		{Server: 0, GPUs: 1}, {Server: 0, GPUs: 1},
		{Server: 1, GPUs: 1, Flexible: true},
	}
	got := Phase2([]*job.Job{a, b}, 1, job.Linear, Tuning{}, nil)
	if len(got) != 1 || got[0].ID != b.ID || got[0].Extra != 1 {
		t.Errorf("churn: %v, want job %d to keep its flexible worker", got, b.ID)
	}
}

func TestItemExtrasSmallRange(t *testing.T) {
	got := appendItemExtras(nil, 3, 0, Phase2MaxItems)
	want := []int{1, 2, 3}
	if len(got) != 3 || got[0] != want[0] || got[2] != want[2] {
		t.Errorf("itemExtras(3) = %v", got)
	}
}

func TestItemExtrasLargeRangeIncludesCurrentAndMax(t *testing.T) {
	got := appendItemExtras(nil, 40, 7, Phase2MaxItems)
	if got[len(got)-1] != 40 {
		t.Errorf("max extra missing: %v", got)
	}
	found := false
	for i, k := range got {
		if k == 7 {
			found = true
		}
		if i > 0 && got[i-1] >= k {
			t.Fatalf("not strictly increasing: %v", got)
		}
	}
	if !found {
		t.Errorf("current extra 7 missing: %v", got)
	}
	if len(got) > Phase2MaxItems+1 {
		t.Errorf("too many items: %v", got)
	}
}

func TestAFSGreedyMarginalGain(t *testing.T) {
	// Under imperfect scaling, every extra worker contributes the same
	// 0.8 gain per GPU for 1-GPU-per-worker jobs; ties go to the job with
	// more remaining work.
	a, b := tableJobs2() // A has work 300, B has work 120
	got := AFS([]*job.Job{a, b}, 2, job.Imperfect, nil)
	if len(got) != 1 || got[0].ID != a.ID || got[0].Extra != 2 {
		t.Errorf("AFS = %v, want A getting both workers (larger remaining)", got)
	}
}

func TestAFSPerGPUNormalization(t *testing.T) {
	// A 4-GPU-per-worker job and a 1-GPU-per-worker job with the same
	// per-GPU gain under linear scaling: the bigger job's workers cost
	// more but gain proportionally more; per-GPU gain ties, and remaining
	// work decides.
	big := job.New(1, 0, job.Generic, 4, 1, 3, 1000)
	big.Elastic = true
	small := job.New(2, 0, job.Generic, 1, 1, 3, 10)
	small.Elastic = true
	got := AFS([]*job.Job{big, small}, 4, job.Linear, nil)
	if len(got) == 0 || got[0].ID != big.ID {
		t.Errorf("AFS = %v, want the big job favored on ties", got)
	}
}

func TestAFSRespectsCapacityAndRange(t *testing.T) {
	a, b := tableJobs2()
	got := AFS([]*job.Job{a, b}, 100, job.Linear, nil)
	for _, e := range got {
		if e.Extra > 4 {
			t.Errorf("job %d got %d extras beyond range", e.ID, e.Extra)
		}
	}
	total := 0
	for _, e := range got {
		total += e.Extra
	}
	if total != 8 {
		t.Errorf("abundant capacity should fill both ranges: %v", got)
	}
}

// prodShapeJobs builds n elastic jobs at the phase-2 shape of a paper-scale
// run: mixed GPUs per worker, flexible ranges on both sides of the item
// cap, some jobs already holding flexible workers. It also returns the
// GPUs their full flexible demand would take.
func prodShapeJobs(n int) ([]*job.Job, int) {
	rng := rand.New(rand.NewSource(3))
	jobs := make([]*job.Job, n)
	total := 0
	for i := range jobs {
		gpw := 1 << rng.Intn(4)
		lo := rng.Intn(4) + 1
		j := job.New(i+1, 0, job.Generic, gpw, lo, lo+rng.Intn(14)+1, float64(rng.Intn(5000)+100))
		j.Elastic = true
		for w := 0; w < lo+rng.Intn(j.FlexRange()+1); w++ {
			j.Workers = append(j.Workers, job.Worker{Server: w, GPUs: gpw, Flexible: w >= lo})
		}
		jobs[i] = j
		total += j.FlexRange() * gpw
	}
	return jobs, total
}

// BenchmarkPhase2 times one scheduler's steady-state phase-2 solve: warm
// throughput cache, reused scratch, capacity a third of the demand.
func BenchmarkPhase2(b *testing.B) {
	jobs, total := prodShapeJobs(80)
	cache := NewThroughputCache(job.Imperfect)
	var s Phase2Scratch
	s.Phase2(jobs, total/3, job.Imperfect, Tuning{}, cache)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Phase2(jobs, total/3, job.Imperfect, Tuning{}, cache)
	}
}

func TestPhase2SteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops values at random under -race")
	}
	jobs, total := prodShapeJobs(80)
	cache := NewThroughputCache(job.Imperfect)
	var s Phase2Scratch
	s.Phase2(jobs, total/3, job.Imperfect, Tuning{}, cache)
	// The returned targets and the knapsack's choice slice.
	if n := testing.AllocsPerRun(50, func() { s.Phase2(jobs, total/3, job.Imperfect, Tuning{}, cache) }); n > 2 {
		t.Errorf("%v allocs per steady-state Phase2, want at most 2", n)
	}
}

func TestPhase2ScratchMatchesFresh(t *testing.T) {
	// Reused scratch must give the same targets as a fresh one, across
	// calls of different shapes.
	jobs, total := prodShapeJobs(80)
	var s Phase2Scratch
	for _, n := range []int{80, 7, 80, 1, 40} {
		for _, capGPUs := range []int{total / 5, total / 2, total} {
			got := s.Phase2(jobs[:n], capGPUs, job.Imperfect, Tuning{}, nil)
			want := Phase2(jobs[:n], capGPUs, job.Imperfect, Tuning{}, nil)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d cap=%d: scratch %v != fresh %v", n, capGPUs, got, want)
			}
		}
	}
}
