package alloc

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"lyra/internal/job"
)

// polluxReference is the direct-evaluation genetic search that the
// table-driven PolluxScratch.Pollux replaced: goodput re-evaluated on
// every lookup, floors looked up in the running map, the repair list
// rescanned after every victim and a fresh genome per iteration. It is the
// reference the production search must match decision for decision.
func polluxReference(candidates []*job.Job, running map[int]bool, capacityGPUs int, cfg PolluxConfig, sm job.ScalingModel) []PolluxDecision {
	cfg = cfg.withDefaults()
	if len(candidates) == 0 || capacityGPUs <= 0 {
		return nil
	}
	jobs := make([]*job.Job, len(candidates))
	copy(jobs, candidates)
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].ID < jobs[k].ID })
	if len(jobs) > cfg.MaxCandidates {
		jobs = jobs[:cfg.MaxCandidates]
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	type genome struct {
		workers []int
		gpus    int
		fitness float64
	}
	eval := func(g *genome) {
		g.gpus, g.fitness = 0, 0
		for i, w := range g.workers {
			g.gpus += w * jobs[i].GPUsPerWorker
			g.fitness += goodput(jobs[i], w, cfg.EfficiencyDecay, sm)
		}
	}
	feasible := func(g *genome) bool { return g.gpus <= capacityGPUs }
	minOf := func(i int) int {
		if running[jobs[i].ID] {
			return jobs[i].MinWorkers
		}
		return 0
	}
	var shrinkable []int
	shrink := func(g *genome, i int) {
		// Shrink within range, or drop a pending job entirely.
		var next int
		if g.workers[i] > jobs[i].MinWorkers {
			next = g.workers[i] - 1
		} else {
			next = minOf(i)
		}
		g.gpus -= (g.workers[i] - next) * jobs[i].GPUsPerWorker
		g.fitness += goodput(jobs[i], next, cfg.EfficiencyDecay, sm) -
			goodput(jobs[i], g.workers[i], cfg.EfficiencyDecay, sm)
		g.workers[i] = next
	}
	repair := func(g *genome, rng *rand.Rand) {
		for g.gpus > capacityGPUs {
			shrinkable = shrinkable[:0]
			for i := range jobs {
				if g.workers[i] > minOf(i) {
					shrinkable = append(shrinkable, i)
				}
			}
			if len(shrinkable) == 0 {
				return
			}
			// Shrink a random victim repeatedly until feasible or it
			// bottoms out, then re-scan.
			i := shrinkable[rng.Intn(len(shrinkable))]
			for g.gpus > capacityGPUs && g.workers[i] > minOf(i) {
				shrink(g, i)
			}
		}
	}

	// Seed the population: genome 0 packs pending jobs greedily at base
	// demand in candidate order (a launch-friendly starting point the
	// search refines), genome 1 keeps everything at its floor, the rest
	// are random.
	pop := make([]*genome, cfg.Population)
	for p := range pop {
		g := &genome{workers: make([]int, len(jobs))}
		budget := capacityGPUs
		for i, j := range jobs {
			switch {
			case p == 0:
				w := minOf(i)
				if w == 0 && j.BaseGPUs() <= budget {
					w = j.MinWorkers
				}
				budget -= w * j.GPUsPerWorker
				g.workers[i] = w
			case p == 1 || rng.Float64() < 0.5:
				g.workers[i] = minOf(i)
			default:
				g.workers[i] = j.MinWorkers + rng.Intn(j.FlexRange()+1)
			}
		}
		eval(g)
		repair(g, rng)
		pop[p] = g
	}

	best := pop[0]
	for _, g := range pop[1:] {
		if g.fitness > best.fitness {
			best = g
		}
	}
	for it := 0; it < cfg.Iterations; it++ {
		// Tournament: mutate a copy of a good genome, replace a bad one.
		a, b := pop[rng.Intn(len(pop))], pop[rng.Intn(len(pop))]
		parent, victim := a, b
		if b.fitness > a.fitness {
			parent, victim = b, a
		}
		child := &genome{workers: append([]int(nil), parent.workers...), gpus: parent.gpus, fitness: parent.fitness}
		for m := 0; m < 1+rng.Intn(3); m++ {
			i := rng.Intn(len(jobs))
			j := jobs[i]
			lo := minOf(i)
			var next int
			if rng.Float64() < 0.3 && lo == 0 {
				// Toggle scheduling of a pending job.
				if child.workers[i] == 0 {
					next = j.MinWorkers
				} else {
					next = 0
				}
			} else {
				next = j.MinWorkers + rng.Intn(j.FlexRange()+1)
			}
			child.gpus += (next - child.workers[i]) * j.GPUsPerWorker
			child.fitness += goodput(j, next, cfg.EfficiencyDecay, sm) -
				goodput(j, child.workers[i], cfg.EfficiencyDecay, sm)
			child.workers[i] = next
		}
		repair(child, rng)
		if !feasible(child) {
			continue
		}
		*victim = *child
		if child.fitness > best.fitness {
			best = victim
		}
	}

	out := make([]PolluxDecision, 0, len(jobs))
	for i, w := range best.workers {
		lo := minOf(i)
		if w < lo {
			w = lo
		}
		out = append(out, PolluxDecision{ID: jobs[i].ID, Workers: w})
	}
	return out
}

// decodePollux builds a candidate set from fuzzer bytes: up to 60 jobs with
// distinct IDs in shuffled order, 1 to 8 GPUs per worker, 1 to 4 base
// workers and 0 to 12 optional ones (0 is a rigid job). It also returns
// one running flag per job and the GPUs of everyone's full demand.
func decodePollux(data []byte) ([]*job.Job, []bool, int) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	jobs := make([]*job.Job, int(next())%61)
	running := make([]bool, len(jobs))
	demand := 0
	for i := range jobs {
		shape, flex := next(), int(next())%13
		lo := 1 + int(shape>>2)%4
		j := job.New(3*i+1, 0, job.Generic, 1<<(shape%4), lo, lo+flex, 100)
		j.Elastic = flex > 0
		demand += j.MaxGPUs()
		k := int(next()) % (i + 1)
		jobs[i], jobs[k] = jobs[k], j
		running[i], running[k] = running[k], shape&0x40 != 0
	}
	return jobs, running, demand
}

// FuzzPolluxVsReference pins the table-driven search to polluxReference:
// identical decisions (==) over running floors, capacities from 0 to twice
// the total demand (the low ones repair-heavy), rigid and multi-GPU jobs,
// both scaling models, a hit MaxCandidates cap and small populations. Each
// input runs several epochs on one scratch and one cache, the way a
// scheduler does, with the capacity, seed, running set and candidate set
// changing between epochs; the first epoch also checks the cache-free
// package-level Pollux.
func FuzzPolluxVsReference(f *testing.F) {
	f.Add([]byte{}, uint8(64), int64(1), uint8(0))
	f.Add([]byte{3, 0x41, 4, 0, 2, 0, 1, 0x07, 12, 2}, uint8(40), int64(7), uint8(0x01))
	f.Add([]byte{2, 0x43, 0, 0, 0x40, 5, 1}, uint8(255), int64(-3), uint8(0x02))
	f.Add([]byte{4, 0xc5, 9, 0, 0x1a, 12, 1, 0x42, 3, 0, 0x03, 7, 2}, uint8(8), int64(11), uint8(0x7c))
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 24; i++ {
		data := make([]byte, 1+rng.Intn(200))
		rng.Read(data)
		f.Add(data, uint8(rng.Intn(256)), rng.Int63(), uint8(rng.Intn(256)))
	}
	f.Fuzz(func(t *testing.T, data []byte, capPct uint8, seed int64, knobs uint8) {
		jobs, isRunning, demand := decodePollux(data)
		sm := job.Linear
		if knobs&0x01 != 0 {
			sm = job.Imperfect
		}
		cfg := PolluxConfig{Seed: seed}
		if knobs&0x02 != 0 {
			cfg.MaxCandidates = 1 + len(jobs)/3
		}
		cfg.Population = []int{0, 1, 2, 5}[knobs>>2&3]
		cfg.Iterations = []int{0, 1, 40, 600}[knobs>>4&3]
		if knobs&0x40 != 0 {
			cfg.EfficiencyDecay = 0.2
		}
		var s PolluxScratch
		cache := NewThroughputCache(sm)
		for epoch := 0; epoch < 4; epoch++ {
			cands := jobs[min(epoch%2, len(jobs)):]
			running := make(map[int]bool)
			for i, j := range jobs {
				if isRunning[i] != (epoch == 3 && i%3 == 0) {
					running[j.ID] = true
				}
			}
			capGPUs := demand * int(capPct+uint8(61*epoch)) / 128
			cfg.Seed = seed + int64(epoch)
			want := polluxReference(cands, running, capGPUs, cfg, sm)
			if got := s.Pollux(cands, running, capGPUs, cfg, sm, cache); !slices.Equal(got, want) {
				t.Fatalf("epoch %d cap %d cfg %+v: table-driven %v != reference %v", epoch, capGPUs, cfg, got, want)
			}
			if epoch == 0 {
				if got := Pollux(cands, running, capGPUs, cfg, sm); !slices.Equal(got, want) {
					t.Fatalf("cap %d cfg %+v: cache-free %v != reference %v", capGPUs, cfg, got, want)
				}
			}
		}
	})
}
