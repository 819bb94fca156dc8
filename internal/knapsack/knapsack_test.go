package knapsack

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestZeroOneKnown(t *testing.T) {
	items := []Item{{Weight: 2, Value: 3}, {Weight: 3, Value: 4}, {Weight: 4, Value: 5}, {Weight: 5, Value: 6}}
	best, chosen := ZeroOne(items, 5)
	if best != 7 {
		t.Errorf("best = %v, want 7 (items 0+1)", best)
	}
	wantChosen := []int{0, 1}
	if len(chosen) != 2 || chosen[0] != wantChosen[0] || chosen[1] != wantChosen[1] {
		t.Errorf("chosen = %v, want %v", chosen, wantChosen)
	}
}

func TestZeroOneEmptyAndNegative(t *testing.T) {
	if best, chosen := ZeroOne(nil, 10); best != 0 || chosen != nil {
		t.Errorf("empty: %v %v", best, chosen)
	}
	if best, _ := ZeroOne([]Item{{Weight: 1, Value: 1}}, -1); best != 0 {
		t.Errorf("negative capacity: %v", best)
	}
}

func TestZeroOneZeroWeightItems(t *testing.T) {
	items := []Item{{Weight: 0, Value: 2}, {Weight: 1, Value: 1}}
	best, chosen := ZeroOne(items, 0)
	if best != 2 || len(chosen) != 1 || chosen[0] != 0 {
		t.Errorf("zero-weight item not taken for free: best=%v chosen=%v", best, chosen)
	}
}

func TestZeroOneSelectionConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(12) + 1
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{Weight: rng.Intn(8), Value: float64(rng.Intn(20))}
		}
		cap := rng.Intn(20)
		best, chosen := ZeroOne(items, cap)
		w, v := 0, 0.0
		for _, idx := range chosen {
			w += items[idx].Weight
			v += items[idx].Value
		}
		if w > cap {
			t.Fatalf("selection overweight: %d > %d", w, cap)
		}
		if math.Abs(v-best) > 1e-9 {
			t.Fatalf("selection value %v != reported best %v", v, best)
		}
	}
}

func TestPropertyZeroOneMatchesBrute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(10) + 1
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{Weight: rng.Intn(10), Value: float64(rng.Intn(50))}
		}
		cap := rng.Intn(25)
		dp, _ := ZeroOne(items, cap)
		brute, _ := ZeroOneBrute(items, cap)
		return math.Abs(dp-brute) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestZeroOneBruteTooLarge(t *testing.T) {
	items := make([]Item, 30)
	if v, sel := ZeroOneBrute(items, 5); !math.IsNaN(v) || sel != nil {
		t.Error("brute force should refuse >24 items")
	}
}

func TestMultiChoiceKnownFigure6(t *testing.T) {
	// Figure 6 of the paper: job A (2 GPUs/worker, one extra worker with
	// JCT reduction 0... the figure's values) and job B (1 GPU/worker,
	// four extra workers). Weights are GPUs; values are JCT reductions.
	groups := [][]Item{
		{{Weight: 2, Value: 0}},
		{{Weight: 1, Value: 20}, {Weight: 2, Value: 30}, {Weight: 3, Value: 36}, {Weight: 4, Value: 40}},
	}
	best, choice := MultiChoice(groups, 4)
	if best != 40 {
		t.Errorf("best = %v, want 40 (take B's 4-GPU item)", best)
	}
	if choice[0] != -1 || choice[1] != 3 {
		t.Errorf("choice = %v, want [-1 3]", choice)
	}
}

func TestMultiChoiceRespectsOnePerGroup(t *testing.T) {
	groups := [][]Item{
		{{Weight: 1, Value: 10}, {Weight: 1, Value: 12}},
	}
	best, choice := MultiChoice(groups, 5)
	if best != 12 || choice[0] != 1 {
		t.Errorf("best=%v choice=%v, want 12 picking index 1", best, choice)
	}
}

func TestMultiChoiceEmptyAndNegative(t *testing.T) {
	best, choice := MultiChoice(nil, 10)
	if best != 0 || len(choice) != 0 {
		t.Errorf("empty groups: %v %v", best, choice)
	}
	best, choice = MultiChoice([][]Item{{{Weight: 1, Value: 5}}}, -1)
	if best != 0 || choice[0] != -1 {
		t.Errorf("negative capacity: %v %v", best, choice)
	}
}

func TestMultiChoiceRejectsOversizedGroup(t *testing.T) {
	// A larger group would wrap its int16 pick index and read as "no pick".
	defer func() {
		if recover() == nil {
			t.Error("group of MaxGroupItems+1 items accepted")
		}
	}()
	MultiChoice([][]Item{make([]Item, MaxGroupItems+1)}, 1)
}

func TestMultiChoiceSelectionConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		ng := rng.Intn(5) + 1
		groups := make([][]Item, ng)
		for g := range groups {
			items := make([]Item, rng.Intn(4)+1)
			for i := range items {
				items[i] = Item{Weight: rng.Intn(6) + 1, Value: float64(rng.Intn(30))}
			}
			groups[g] = items
		}
		cap := rng.Intn(15)
		best, choice := MultiChoice(groups, cap)
		if len(choice) != ng {
			t.Fatalf("choice length %d != groups %d", len(choice), ng)
		}
		w, v := 0, 0.0
		for g, idx := range choice {
			if idx == -1 {
				continue
			}
			w += groups[g][idx].Weight
			v += groups[g][idx].Value
		}
		if w > cap {
			t.Fatalf("selection overweight: %d > %d", w, cap)
		}
		if math.Abs(v-best) > 1e-9 {
			t.Fatalf("selection value %v != reported best %v", v, best)
		}
	}
}

func TestPropertyMultiChoiceMatchesBrute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ng := rng.Intn(4) + 1
		groups := make([][]Item, ng)
		for g := range groups {
			items := make([]Item, rng.Intn(4)+1)
			for i := range items {
				items[i] = Item{Weight: rng.Intn(6), Value: float64(rng.Intn(40))}
			}
			groups[g] = items
		}
		cap := rng.Intn(12)
		dp, _ := MultiChoice(groups, cap)
		brute, _ := MultiChoiceBrute(groups, cap)
		return math.Abs(dp-brute) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMultiChoiceBruteTooLarge(t *testing.T) {
	groups := make([][]Item, 30)
	for i := range groups {
		groups[i] = []Item{{1, 1}, {2, 2}, {3, 3}}
	}
	if v, sel := MultiChoiceBrute(groups, 5); !math.IsNaN(v) || sel != nil {
		t.Error("brute force should refuse huge search spaces")
	}
}

func TestMultiChoicePaperScalePerformance(t *testing.T) {
	// §5.2 reports 354 items / 245 GPUs solved in 0.02 s; the DP must be
	// comfortably fast at that scale.
	rng := rand.New(rand.NewSource(42))
	groups := make([][]Item, 59) // 59 groups x 6 items = 354 items
	for g := range groups {
		items := make([]Item, 6)
		for i := range items {
			items[i] = Item{Weight: rng.Intn(8) + 1, Value: rng.Float64() * 100}
		}
		groups[g] = items
	}
	best, choice := MultiChoice(groups, 245)
	if best <= 0 || len(choice) != 59 {
		t.Errorf("paper-scale MCKP produced best=%v len(choice)=%d", best, len(choice))
	}
}

// prodShapeGroups builds an MCKP instance at the phase-2 call shape of a
// paper-scale run: n elastic jobs with 7 candidate worker counts each,
// weights k x GPUs-per-worker and concave JCT-reduction values. It also
// returns the sum of the groups' largest weights.
func prodShapeGroups(n int) ([][]Item, int) {
	rng := rand.New(rand.NewSource(5))
	groups := make([][]Item, n)
	total := 0
	for g := range groups {
		gpw := 1 << rng.Intn(4)
		base := float64(rng.Intn(8) + 1)
		remaining := rng.Float64() * 1e5
		items := make([]Item, 7)
		for k := range items {
			items[k] = Item{Weight: (k + 1) * gpw, Value: remaining/base - remaining/(base+float64(k+1))}
		}
		groups[g] = items
		total += items[len(items)-1].Weight
	}
	return groups, total
}

// BenchmarkMultiChoice times the kernel at the phase-2 call shape, with
// capacity tight (a third of the largest weights combined) and slack (all
// of them).
func BenchmarkMultiChoice(b *testing.B) {
	groups, total := prodShapeGroups(80)
	for _, bc := range []struct {
		name     string
		capacity int
	}{{"cap=third", total / 3}, {"cap=total", total}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MultiChoice(groups, bc.capacity)
			}
		})
	}
}

func TestMultiChoiceSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops values at random under -race")
	}
	groups, total := prodShapeGroups(80)
	for _, capacity := range []int{total / 3, total} {
		MultiChoice(groups, capacity) // size the pooled scratch
		if n := testing.AllocsPerRun(50, func() { MultiChoice(groups, capacity) }); n > 1 {
			t.Errorf("capacity %d: %v allocs per call, want at most 1 (the returned choice slice)", capacity, n)
		}
	}
}
