package sched

import (
	"lyra/internal/alloc"
	"lyra/internal/job"
	"lyra/internal/place"
	"lyra/internal/sim"
)

// Pollux models the goodput-optimizing scheduler of §7.1: every epoch a
// genetic algorithm searches for the allocation vector (over pending jobs
// and resizable running elastic jobs) maximizing total goodput. Pending
// jobs the GA leaves at zero stay queued — Pollux "does not explicitly
// launch as many jobs as possible, thus incurring longer queuing time"
// (§7.4). Its job agent tunes batch size and learning rate on every
// allocation change, which the simulation models as ScalingModel.TunedGain
// on jobs it starts.
type Pollux struct {
	Config alloc.PolluxConfig
	epoch  int64

	// cache memoizes per-job goodput tables (alloc.ThroughputCache: pure
	// memoization, bit-identical decisions) and ga is the search's working
	// memory, both reused across epochs and per-instance.
	cache *alloc.ThroughputCache
	ga    alloc.PolluxScratch
}

// NewPollux returns the scheduler with the evaluation configuration.
func NewPollux(seed int64) *Pollux {
	return &Pollux{Config: alloc.DefaultPolluxConfig(seed)}
}

// Less implements sim.Scheduler. Pollux has no queue-priority notion of its
// own; arrival order keeps the pending queue stable.
func (p *Pollux) Less(a, b *job.Job) bool { return lessByArrival(a, b) }

// Schedule implements sim.Scheduler.
func (p *Pollux) Schedule(st *sim.State) {
	p.epoch++
	freeT, freeL := st.FreeSchedulableGPUs()
	running := make(map[int]bool)
	heldGPUs := 0 // all GPUs held by resizable running jobs: the GA re-decides their whole allocation
	// ID order, not map order: cands seeds the GA's search population, so
	// its order must not vary run to run. Copy the maintained view: cands
	// grows with the pending queue below, and appending to the state-owned
	// slice is forbidden.
	elastic := st.ElasticOrdered()
	cands := make([]*job.Job, 0, len(elastic)+len(st.Pending))
	for _, j := range elastic {
		running[j.ID] = true
		cands = append(cands, j)
		heldGPUs += j.GPUsHeld()
	}
	byID := make(map[int]*job.Job, len(cands)+len(st.Pending))
	for _, j := range cands {
		byID[j.ID] = j
	}
	for _, j := range st.Pending {
		cands = append(cands, j)
		byID[j.ID] = j
	}
	if len(cands) == 0 {
		return
	}
	cfg := p.Config
	cfg.Seed = p.Config.Seed*1000003 + p.epoch // fresh but deterministic search each epoch
	if p.cache == nil && !st.Rescan {
		p.cache = alloc.NewThroughputCache(st.Scaling)
	}
	sp := st.Prof.Start("pollux.ga")
	decisions := p.ga.Pollux(cands, running, freeT+freeL+heldGPUs, cfg, st.Scaling, p.cache)
	sp.End()
	sp = st.Prof.Start("pollux.apply")
	defer sp.End()

	// Apply resizes of running jobs first (their scale-ins free GPUs).
	var extras []alloc.Extra
	var resized []*job.Job
	for _, d := range decisions {
		if running[d.ID] {
			j := byID[d.ID]
			extras = append(extras, alloc.Extra{ID: d.ID, Extra: d.Workers - j.MinWorkers})
			resized = append(resized, j)
		}
	}
	applyExtraTargets(st, resized, extras, false, "pollux")

	// Start pending jobs the GA selected.
	saved := st.Cause
	st.Cause = "pollux"
	defer func() { st.Cause = saved }()
	for _, d := range decisions {
		if running[d.ID] || d.Workers <= 0 {
			continue
		}
		j := byID[d.ID]
		if j.State != job.Pending {
			continue
		}
		pp := defaultPoolPolicy(j)
		ws, ok := place.Gang(st.Cluster, j, j.MinWorkers, pp.options(j, false))
		if !ok {
			continue
		}
		st.Start(j, ws)
		j.Tuned = true
		if extra := d.Workers - j.MinWorkers; extra > 0 && j.Elastic {
			if more := place.UpTo(st.Cluster, j, extra, scaleOutOpts(st, j, false)); len(more) > 0 {
				st.AddWorkers(j, more)
			}
		}
	}
	st.CompactPending()
}
