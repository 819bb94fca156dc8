// Package alloc implements resource allocation across jobs (§5.2): Lyra's
// two-phase heuristic — shortest-job-first over the inelastic workload
// (inelastic jobs plus elastic jobs' base demands), then a multiple-choice
// knapsack over the elastic jobs' flexible demands maximizing total JCT
// reduction — plus the allocation policies of the compared schemes (AFS's
// greedy marginal-gain loop and a Pollux-style goodput-maximizing genetic
// search).
package alloc

import (
	"cmp"
	"slices"
	"sort"

	"lyra/internal/cluster"
	"lyra/internal/job"
	"lyra/internal/knapsack"
)

// Phase2MaxItems is the default cap on the number of knapsack items
// generated per elastic job. Jobs with a wider flexible range get evenly
// spaced worker counts; this keeps the pseudo-polynomial DP fast at
// production scale while preserving the choice structure. Sweeps override
// it per call via Tuning.MaxItems — the package default is never mutated,
// so concurrent simulations stay independent.
var Phase2MaxItems = 8

// Tuning carries the per-call MCKP knobs. The zero value selects the
// package defaults (StabilityBonus, Phase2MaxItems); the ablation
// experiments pass explicit values instead of mutating globals so that
// simulations can run concurrently.
type Tuning struct {
	// StabilityBonus overrides the current-allocation value bump
	// (0 = default; 1 disables the damping).
	StabilityBonus float64
	// MaxItems overrides the per-job knapsack item cap (0 = default).
	MaxItems int
}

func (t Tuning) stabilityBonus() float64 {
	if t.StabilityBonus == 0 {
		return StabilityBonus
	}
	return t.StabilityBonus
}

func (t Tuning) maxItems() int {
	if t.MaxItems == 0 {
		return Phase2MaxItems
	}
	return t.MaxItems
}

// Extra is a phase-2 decision: give job ID extra workers beyond its base
// demand (its current flexible workers are included in Extra, i.e. Extra is
// the new target, not a delta).
type Extra struct {
	ID    int
	Extra int
}

// JCTReduction returns the phase-2 item value for giving j extra workers
// beyond its minimum: the reduction of its remaining running time relative
// to running at base demand (§5.2, Figure 6). Throughput is evaluated at
// reference (training-GPU) speed; on-loan GPUs are normalized by placement.
func JCTReduction(j *job.Job, extra int, sm job.ScalingModel) float64 {
	base := j.NominalThroughput(j.MinWorkers, cluster.V100, sm)
	more := j.NominalThroughput(j.MinWorkers+extra, cluster.V100, sm)
	if base <= 0 || more <= 0 {
		return 0
	}
	return j.Remaining/base - j.Remaining/more
}

// ThroughputCache memoizes per-job nominal-throughput tables. A job's
// nominal throughput at w workers depends only on immutable job fields
// (worker shape, scaling exponent) and the run's ScalingModel — never on
// progress, placement or tuning state — so the table over the job's whole
// worker range [MinWorkers, MaxWorkers] is computed once per job per run
// and reused by every phase-2 / AFS epoch, instead of re-evaluating the
// model O(items) times per candidate per epoch. Cached values come from the
// same NominalThroughput calls, so decisions are bit-identical with and
// without the cache — the differential fuzz target and the golden stream
// both pin this. One cache belongs to one scheduler instance (one run); it
// is not safe for concurrent use.
//
// The cache also holds each job's Pollux goodput table (goodputTable): a
// job's goodput depends on the same immutable inputs plus the efficiency
// decay, which is fixed per cache.
type ThroughputCache struct {
	sm  job.ScalingModel
	tbl map[int][]float64 // job ID → throughput at MinWorkers+k for k in [0, FlexRange]

	gp      map[int][]float64 // job ID → goodput at w workers for w in [0, MaxWorkers]
	gpDecay float64           // the decay gp was built for
}

// NewThroughputCache returns an empty cache for one run's scaling model.
func NewThroughputCache(sm job.ScalingModel) *ThroughputCache {
	return &ThroughputCache{sm: sm, tbl: make(map[int][]float64)}
}

func (c *ThroughputCache) table(j *job.Job) []float64 {
	if t, ok := c.tbl[j.ID]; ok {
		return t
	}
	t := make([]float64, j.FlexRange()+1)
	for k := range t {
		t[k] = j.NominalThroughput(j.MinWorkers+k, cluster.V100, c.sm)
	}
	c.tbl[j.ID] = t
	return t
}

// nominal returns j's nominal throughput at w workers, from the table when
// w is inside the job's worker range.
func (c *ThroughputCache) nominal(j *job.Job, w int) float64 {
	if k := w - j.MinWorkers; k >= 0 && k <= j.FlexRange() {
		return c.table(j)[k]
	}
	return j.NominalThroughput(w, cluster.V100, c.sm)
}

// jctReduction is JCTReduction served from the cache.
func (c *ThroughputCache) jctReduction(j *job.Job, extra int) float64 {
	t := c.table(j)
	base, more := t[0], c.nominal(j, j.MinWorkers+extra)
	if base <= 0 || more <= 0 {
		return 0
	}
	return j.Remaining/base - j.Remaining/more
}

// goodputTable returns j's Pollux goodput table under decay, built on the
// job's first lookup: table[w] == goodput(j, w, decay, c.sm) for w in
// [0, MaxWorkers]. Each entry comes from its own goodput call, so a lookup
// returns the very float the direct evaluation would. A call with another
// decay than the tables were built for starts them afresh.
func (c *ThroughputCache) goodputTable(j *job.Job, decay float64) []float64 {
	if c.gp == nil || c.gpDecay != decay {
		c.gp, c.gpDecay = make(map[int][]float64), decay
	}
	if t, ok := c.gp[j.ID]; ok {
		return t
	}
	t := make([]float64, j.MaxWorkers+1)
	for w := range t {
		t[w] = goodput(j, w, decay, c.sm)
	}
	c.gp[j.ID] = t
	return t
}

// appendItemExtras appends the candidate extra-worker counts for one job
// to dst: all of 1..FlexRange when small, otherwise maxItems evenly spaced
// values always including FlexRange. current (the job's present extra
// workers) is always included so the stability bonus below has an item to
// attach to. With flexRange > maxItems the spaced values are at least 1
// and strictly increasing, so the result never repeats a count.
func appendItemExtras(dst []int, flexRange, current, maxItems int) []int {
	if flexRange <= maxItems {
		for k := 1; k <= flexRange; k++ {
			dst = append(dst, k)
		}
		return dst
	}
	prev := 0
	for i := 1; i <= maxItems; i++ {
		k := i * flexRange / maxItems
		if prev < current && current < k {
			dst = append(dst, current)
		}
		dst = append(dst, k)
		prev = k
	}
	return dst
}

// StabilityBonus is the default relative value bump a job's current
// allocation item receives in the MCKP, so that the solution only moves
// flexible workers between jobs when the JCT-reduction improvement is real
// — without it the knapsack reshuffles workers every epoch as
// remaining-work values drift, inflating scaling operations (§7.4 measures
// Pollux at 1.76x Lyra's scaling-operation count; the damping keeps Lyra on
// the right side of that comparison). Pass Tuning.StabilityBonus = 1 to
// disable per call (the ablation experiments do).
var StabilityBonus = 1.08

// MaxPhase2Items is the largest per-job item cap (Tuning.MaxItems) Phase2
// accepts: a job's group holds at most MaxItems+1 items (the spaced counts
// plus its current one), and a knapsack group holds at most
// knapsack.MaxGroupItems.
const MaxPhase2Items = knapsack.MaxGroupItems - 1

// Phase2 solves the flexible-demand allocation as a multiple-choice
// knapsack (§5.2): each elastic job contributes a group of items (one per
// candidate extra-worker count), weights are GPUs, values are JCT
// reductions, and the capacity is the number of GPUs available for flexible
// workers. It returns the target extra workers per job (jobs absent from
// the result get zero). cache, when non-nil, serves the throughput lookups
// from per-job memoized tables (same values, fewer model evaluations); nil
// evaluates the model directly. Phase2 builds its working memory afresh;
// a caller solving once per epoch should keep a Phase2Scratch instead.
func Phase2(jobs []*job.Job, capacityGPUs int, sm job.ScalingModel, tune Tuning, cache *ThroughputCache) []Extra {
	var s Phase2Scratch
	return s.Phase2(jobs, capacityGPUs, sm, tune, cache)
}

// Phase2Scratch is Phase2's working memory, reused from call to call so a
// steady-state epoch allocates only the returned targets and the knapsack's
// choice slice. The zero value is ready to use. A scratch belongs to one
// scheduler instance (one run) and is not safe for concurrent use.
type Phase2Scratch struct {
	ordered   []*job.Job
	groupJobs []*job.Job
	groups    [][]knapsack.Item
	items     []knapsack.Item // group g is items[start[g]:start[g+1]]
	extras    []int           // extra-worker count of each item
	start     []int
}

// Phase2 is the package-level Phase2 on reused working memory.
func (s *Phase2Scratch) Phase2(jobs []*job.Job, capacityGPUs int, sm job.ScalingModel, tune Tuning, cache *ThroughputCache) []Extra {
	if capacityGPUs <= 0 || len(jobs) == 0 {
		return nil
	}
	bonus, maxItems := tune.stabilityBonus(), tune.maxItems()
	// Deterministic group order (job IDs are unique, so any sort agrees).
	s.ordered = append(s.ordered[:0], jobs...)
	ordered := s.ordered
	slices.SortFunc(ordered, func(a, b *job.Job) int { return cmp.Compare(a.ID, b.ID) })

	// Shortcut: if everything fits, skip the DP.
	total := 0
	for _, j := range ordered {
		total += j.FlexRange() * j.GPUsPerWorker
	}
	if total <= capacityGPUs {
		out := make([]Extra, 0, len(ordered))
		for _, j := range ordered {
			if j.FlexRange() > 0 {
				out = append(out, Extra{ID: j.ID, Extra: j.FlexRange()})
			}
		}
		return out
	}

	// Scale weights down by the common GPU granularity.
	g := 0
	for _, j := range ordered {
		g = gcd(g, j.GPUsPerWorker)
	}
	if g == 0 {
		g = 1
	}

	s.groupJobs, s.items, s.extras = s.groupJobs[:0], s.items[:0], s.extras[:0]
	s.start = append(s.start[:0], 0)
	for _, j := range ordered {
		fr := j.FlexRange()
		if fr == 0 {
			continue
		}
		cur := j.FlexibleWorkers()
		from := len(s.extras)
		s.extras = appendItemExtras(s.extras, fr, cur, maxItems)
		for _, k := range s.extras[from:] {
			var v float64
			if cache != nil {
				v = cache.jctReduction(j, k)
			} else {
				v = JCTReduction(j, k, sm)
			}
			if k == cur {
				v *= bonus
			}
			s.items = append(s.items, knapsack.Item{
				Weight: k * j.GPUsPerWorker / g,
				Value:  v,
			})
		}
		s.groupJobs = append(s.groupJobs, j)
		s.start = append(s.start, len(s.extras))
	}
	// Cut the groups only now: the appends above may have moved the arena.
	s.groups = s.groups[:0]
	for gi := range s.groupJobs {
		s.groups = append(s.groups, s.items[s.start[gi]:s.start[gi+1]])
	}
	_, choice := knapsack.MultiChoice(s.groups, capacityGPUs/g)
	n := 0
	for _, ci := range choice {
		if ci >= 0 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Extra, 0, n)
	for gi, ci := range choice {
		if ci >= 0 {
			out = append(out, Extra{ID: s.groupJobs[gi].ID, Extra: s.extras[s.start[gi]+ci]})
		}
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// AFS allocates flexible workers the way Elastic Resource Sharing does as
// modeled in §7.1: after every job has its base demand, repeatedly give one
// more worker to the job with the largest marginal throughput gain per GPU
// until the capacity is exhausted. Ties favor the job with the most
// remaining work — the greedy bias toward big throughput consumers that
// costs AFS average JCT (§7.4). cache follows the Phase2 contract: non-nil
// serves throughput lookups from memoized tables, nil evaluates the model.
func AFS(jobs []*job.Job, capacityGPUs int, sm job.ScalingModel, cache *ThroughputCache) []Extra {
	type state struct {
		j     *job.Job
		extra int
	}
	states := make([]*state, 0, len(jobs))
	for _, j := range jobs {
		if j.FlexRange() > 0 {
			states = append(states, &state{j: j})
		}
	}
	sort.Slice(states, func(i, k int) bool { return states[i].j.ID < states[k].j.ID })
	remaining := capacityGPUs
	for {
		var best *state
		bestGain := 0.0
		for _, s := range states {
			if s.extra >= s.j.FlexRange() || s.j.GPUsPerWorker > remaining {
				continue
			}
			w := s.j.MinWorkers + s.extra
			var gain float64
			if cache != nil {
				gain = (cache.nominal(s.j, w+1) - cache.nominal(s.j, w)) / float64(s.j.GPUsPerWorker)
			} else {
				gain = (s.j.NominalThroughput(w+1, cluster.V100, sm) - s.j.NominalThroughput(w, cluster.V100, sm)) /
					float64(s.j.GPUsPerWorker)
			}
			switch {
			case best == nil || gain > bestGain+1e-12:
				best, bestGain = s, gain
			case gain > bestGain-1e-12 && s.j.Remaining > best.j.Remaining:
				best = s
			}
		}
		if best == nil {
			break
		}
		best.extra++
		remaining -= best.j.GPUsPerWorker
	}
	var out []Extra
	for _, s := range states {
		if s.extra > 0 {
			out = append(out, Extra{ID: s.j.ID, Extra: s.extra})
		}
	}
	return out
}
