package alloc

import (
	"cmp"
	"math/rand"
	"slices"

	"lyra/internal/cluster"
	"lyra/internal/job"
)

// PolluxConfig sizes the goodput-maximizing genetic search modeled after
// Pollux (§7.1). The paper finds the preset 100 iterations insufficient at
// 3,500-GPU scale and runs 250 to keep scheduling overhead acceptable.
type PolluxConfig struct {
	Iterations int // default 250
	Population int // default 24
	Seed       int64
	// EfficiencyDecay is the per-extra-worker statistical-efficiency loss
	// in the goodput model (Pollux's batch-size/efficiency trade-off).
	EfficiencyDecay float64 // default 0.06
	// MaxCandidates caps how many jobs one search considers, keeping the
	// per-epoch cost bounded at production scale.
	MaxCandidates int // default 300
}

// DefaultPolluxConfig returns the evaluation configuration.
func DefaultPolluxConfig(seed int64) PolluxConfig {
	return PolluxConfig{Iterations: 250, Population: 24, Seed: seed, EfficiencyDecay: 0.06, MaxCandidates: 300}
}

func (c PolluxConfig) withDefaults() PolluxConfig {
	if c.Iterations == 0 {
		c.Iterations = 250
	}
	if c.Population == 0 {
		c.Population = 24
	}
	if c.EfficiencyDecay == 0 {
		c.EfficiencyDecay = 0.06
	}
	if c.MaxCandidates == 0 {
		c.MaxCandidates = 300
	}
	return c
}

// PolluxDecision is the allocation for one job: zero workers means the job
// is not scheduled this round (Pollux does not explicitly launch as many
// jobs as possible, which is why its queuing times trail Lyra's, §7.4).
type PolluxDecision struct {
	ID      int
	Workers int // total workers (0, or in [MinWorkers, MaxWorkers])
}

// goodput models Pollux's normalized goodput (speedup): the job's
// throughput x statistical-efficiency product relative to running at base
// demand. Each worker beyond the base contributes with geometrically
// decaying efficiency. An unscheduled job contributes zero, so the search
// still has an incentive to start jobs — but unlike Lyra it does not
// explicitly launch as many as possible (§7.4).
func goodput(j *job.Job, workers int, decay float64, sm job.ScalingModel) float64 {
	if workers <= 0 {
		return 0
	}
	thr := j.NominalThroughput(workers, cluster.V100, sm)
	base := j.NominalThroughput(j.MinWorkers, cluster.V100, sm)
	if base <= 0 {
		return 0
	}
	eff := 1.0
	for w := j.MinWorkers; w < workers; w++ {
		eff *= 1 - decay
	}
	return thr * eff / base
}

// Pollux searches for the allocation vector maximizing total goodput under
// the GPU capacity, via a mutation-based genetic algorithm with incremental
// fitness evaluation. candidates are pending or running jobs with distinct
// IDs; running jobs may be resized within their range but are never
// dropped to zero (our adaptation is non-preemptive, matching the rest of
// the evaluation). Pollux builds its working memory and goodput tables
// afresh; a caller searching once per epoch should keep a PolluxScratch and
// a ThroughputCache instead.
func Pollux(candidates []*job.Job, running map[int]bool, capacityGPUs int, cfg PolluxConfig, sm job.ScalingModel) []PolluxDecision {
	var s PolluxScratch
	return s.Pollux(candidates, running, capacityGPUs, cfg, sm, nil)
}

// PolluxScratch is Pollux's working memory, reused from call to call so a
// steady-state search allocates only the returned decisions: the sorted
// candidates, their floors and goodput-table slices, every genome of the
// population plus one spare child buffer, the repair list and the seeded
// generator. The zero value is ready to use. A scratch belongs to one
// scheduler instance (one run) and is not safe for concurrent use.
type PolluxScratch struct {
	jobs       []*job.Job
	floor      []int       // MinWorkers for a running candidate, else 0
	gp         [][]float64 // candidate i's goodput by worker count
	pop        []polluxGenome
	arena      []int // population genomes and the child, n ints each
	shrinkable []int
	rng        *rand.Rand
}

type polluxGenome struct {
	workers []int
	gpus    int
	fitness float64
}

// Pollux is the package-level Pollux on reused working memory. cache, when
// non-nil, serves each job's goodput table from memory (ThroughputCache's
// contract: a job's shape and the run's scaling model are fixed, and the
// decay is fixed per cache), so a table is built once per job per run; nil
// builds the tables for this call only. The decisions are the same either
// way, and the same as the direct evaluation: every generator draw and
// every floating-point operation happens in the same order.
func (s *PolluxScratch) Pollux(candidates []*job.Job, running map[int]bool, capacityGPUs int, cfg PolluxConfig, sm job.ScalingModel, cache *ThroughputCache) []PolluxDecision {
	cfg = cfg.withDefaults()
	if len(candidates) == 0 || capacityGPUs <= 0 {
		return nil
	}
	// IDs are distinct, so this order is the one any sort produces.
	s.jobs = append(s.jobs[:0], candidates...)
	slices.SortFunc(s.jobs, func(a, b *job.Job) int { return cmp.Compare(a.ID, b.ID) })
	jobs := s.jobs
	if len(jobs) > cfg.MaxCandidates {
		jobs = jobs[:cfg.MaxCandidates]
	}
	n := len(jobs)

	// Resolve each candidate's floor and goodput table once per call.
	if cache == nil {
		cache = NewThroughputCache(sm) // tables for this call only
	}
	s.floor, s.gp = s.floor[:0], s.gp[:0]
	for _, j := range jobs {
		lo := 0
		if running[j.ID] {
			lo = j.MinWorkers
		}
		s.floor = append(s.floor, lo)
		s.gp = append(s.gp, cache.goodputTable(j, cfg.EfficiencyDecay))
	}
	floor, gp := s.floor, s.gp

	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(cfg.Seed))
	} else {
		s.rng.Seed(cfg.Seed) // the same stream a fresh rand.NewSource(cfg.Seed) yields
	}
	rng := s.rng

	eval := func(g *polluxGenome) {
		g.gpus, g.fitness = 0, 0
		for i, w := range g.workers {
			g.gpus += w * jobs[i].GPUsPerWorker
			g.fitness += gp[i][w]
		}
	}
	repair := func(g *polluxGenome) {
		if g.gpus <= capacityGPUs {
			return
		}
		shrinkable := s.shrinkable[:0]
		for i, w := range g.workers {
			if w > floor[i] {
				shrinkable = append(shrinkable, i)
			}
		}
		for g.gpus > capacityGPUs && len(shrinkable) > 0 {
			// Shrink a random victim repeatedly until feasible or it
			// bottoms out at its floor. Either way it leaves the list:
			// a feasible genome ends the loop, and no other candidate's
			// workers changed, so the list stays what a rescan would build.
			k := rng.Intn(len(shrinkable))
			i := shrinkable[k]
			j, t := jobs[i], gp[i]
			for g.gpus > capacityGPUs && g.workers[i] > floor[i] {
				// Shrink within range, or drop a pending job entirely.
				cur, next := g.workers[i], floor[i]
				if cur > j.MinWorkers {
					next = cur - 1
				}
				g.gpus -= (cur - next) * j.GPUsPerWorker
				g.fitness += t[next] - t[cur]
				g.workers[i] = next
			}
			shrinkable = append(shrinkable[:k], shrinkable[k+1:]...)
		}
		s.shrinkable = shrinkable
	}

	// Seed the population: genome 0 packs pending jobs greedily at base
	// demand in candidate order (a launch-friendly starting point the
	// search refines), genome 1 keeps everything at its floor, the rest
	// are random.
	size := (cfg.Population + 1) * n
	s.arena = slices.Grow(s.arena[:0], size)[:size]
	if cap(s.pop) < cfg.Population {
		s.pop = make([]polluxGenome, cfg.Population)
	}
	pop := s.pop[:cfg.Population]
	for p := range pop {
		g := &pop[p]
		g.workers = s.arena[p*n : (p+1)*n : (p+1)*n]
		budget := capacityGPUs
		for i, j := range jobs {
			switch {
			case p == 0:
				w := floor[i]
				if w == 0 && j.BaseGPUs() <= budget {
					w = j.MinWorkers
				}
				budget -= w * j.GPUsPerWorker
				g.workers[i] = w
			case p == 1 || rng.Float64() < 0.5:
				g.workers[i] = floor[i]
			default:
				g.workers[i] = j.MinWorkers + rng.Intn(j.FlexRange()+1)
			}
		}
		eval(g)
		repair(g)
	}

	best := &pop[0]
	for p := 1; p < len(pop); p++ {
		if pop[p].fitness > best.fitness {
			best = &pop[p]
		}
	}
	// child is the one spare buffer: an accepted child swaps it with the
	// victim's, so no genome is ever allocated inside the loop.
	child := polluxGenome{workers: s.arena[cfg.Population*n : size : size]}
	for it := 0; it < cfg.Iterations; it++ {
		// Tournament: mutate a copy of a good genome, replace a bad one.
		a, b := &pop[rng.Intn(len(pop))], &pop[rng.Intn(len(pop))]
		parent, victim := a, b
		if b.fitness > a.fitness {
			parent, victim = b, a
		}
		copy(child.workers, parent.workers)
		child.gpus, child.fitness = parent.gpus, parent.fitness
		for m := 0; m < 1+rng.Intn(3); m++ {
			i := rng.Intn(n)
			j := jobs[i]
			var next int
			if rng.Float64() < 0.3 && floor[i] == 0 {
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
			child.fitness += gp[i][next] - gp[i][child.workers[i]]
			child.workers[i] = next
		}
		repair(&child)
		if child.gpus > capacityGPUs {
			continue
		}
		victim.workers, child.workers = child.workers, victim.workers
		victim.gpus, victim.fitness = child.gpus, child.fitness
		if victim.fitness > best.fitness {
			best = victim
		}
	}

	out := make([]PolluxDecision, 0, n)
	for i, w := range best.workers {
		if w < floor[i] {
			w = floor[i]
		}
		out = append(out, PolluxDecision{ID: jobs[i].ID, Workers: w})
	}
	return out
}
