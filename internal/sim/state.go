// Package sim is the discrete-event cluster simulator used for Lyra's
// large-scale evaluation (§7.1). It replays a job trace against a modeled
// cluster, delegating decisions to a pluggable Scheduler (job-level
// allocation and placement, §5) and a ShardArbiter (job routing, capacity
// loaning and reclaiming, §4), and records the metrics the paper reports:
// queuing time, JCT, GPU usage series, preemption counts and collateral
// damage. There is one engine: the cluster is always a topology of training
// and inference shards (Topology, cluster.Carve), and the unsharded
// configuration is its 1+1 case.
package sim

import (
	"fmt"
	"slices"
	"sort"

	"lyra/internal/cluster"
	"lyra/internal/invariant"
	"lyra/internal/job"
	"lyra/internal/obs"
	"lyra/internal/prof"
)

// Scheduler decides job allocation and placement. Schedule is invoked every
// scheduling epoch and mutates the state through its methods (Start,
// AddWorkers, RemoveFlexible...). Less defines the queue priority order the
// engine maintains for Pending (e.g. arrival time for FIFO, estimated
// runtime for SJF).
type Scheduler interface {
	Less(a, b *job.Job) bool
	Schedule(st *State)
}

// State is the scheduler-visible simulation state. All job/cluster mutation
// must go through its methods so that work progress is advanced before an
// allocation changes and so the engine learns which completion events to
// refresh.
type State struct {
	Now     float64
	Cluster *cluster.Cluster
	Scaling job.ScalingModel

	// Pending is the job queue, kept sorted by the scheduler's Less. Jobs
	// are inserted by the engine on arrival and re-queued preemption, and
	// removed by CompactPending after scheduling.
	Pending []*job.Job
	// Running indexes running jobs by ID.
	Running map[int]*job.Job

	lastUpdate      map[int]float64
	changed         map[int]*job.Job
	preemptOverhead float64

	// Rescan selects the retained full-rescan reference paths: the ordered
	// running-job views are rebuilt from the Running map on every read and
	// the flexible-GPU count is recounted, exactly as before the dirty-set
	// layer (DESIGN.md §10). The differential fuzz target runs every
	// scenario through both modes and asserts identical decisions.
	Rescan bool

	// version counts scheduler-visible mutations (queue, lifecycle,
	// allocation, progress, pool moves). The engine snapshots it around
	// Schedule calls: when a memoryless scheduler last ran against this
	// exact version and changed nothing, the epoch is quiescent and the
	// pass is skipped (engine.go).
	version uint64

	// Maintained ordered views over Running (DESIGN.md §10). Start appends
	// to runningNew; Preempt/finish flip idxDirty; the next ordered read
	// merges runningNew into the ID-sorted runningIdx, dropping entries no
	// longer in Running, and refilters elasticIdx — so membership churn
	// costs O(changed · log changed) amortized instead of O(R log R) per
	// epoch per scheduler.
	runningNew     []*job.Job
	runningIdx     []*job.Job
	elasticIdx     []*job.Job
	mergeScratch   []*job.Job
	idxDirty       bool
	changedScratch []*job.Job

	// flexNominal is Σ FlexibleWorkers × GPUsPerWorker over running elastic
	// candidates (Elastic && FlexRange > 0) — the flexible capacity term of
	// phase 2 / AFS, maintained at every worker add/remove instead of
	// recounted per epoch.
	flexNominal int

	// Obs is the optional structured event recorder (internal/obs). The
	// nil value is the disabled fast path: every emission site pays one
	// nil check and nothing else, the same discipline as the audit flag.
	// State methods emit the job lifecycle stream (queue/start/preempt/
	// scale/finish); the engine, orchestrator and testbed add their own
	// decision events through the same recorder.
	Obs *obs.Recorder
	// Prof is the optional wall-clock span profiler (internal/prof),
	// nil-disabled under the same discipline as Obs. Schedulers and the
	// orchestrator open phase spans on it; it is strictly wall-clock-only
	// and never feeds the deterministic Obs stream (DESIGN.md §12).
	Prof *prof.Profiler
	// Cause names the decider on whose behalf the current mutation runs
	// ("reclaim", "phase2", "make-room", ...); it is recorded on preempt
	// and re-queue events. Callers set it around a decision and clear it
	// after; empty means the default cause for the event kind.
	Cause string
	// Epoch counts scheduler epochs (simulator) or ticks (testbed); start
	// events record the deciding epoch.
	Epoch int64
	// Starts counts Start transitions, including resumes after preemption.
	Starts int

	// Restart backoff (degraded mode, DESIGN.md §13). When backoffBase > 0
	// a crash-preempted job is held out of the pending queue for
	// min(base·2^N, cap) seconds (N = its prior crash count) instead of
	// requeuing immediately; the engine requeues it via releaseHeld when
	// the hold expires. Held jobs are Pending-state but invisible to the
	// scheduler and the orchestrator's demand estimate; the hold counts as
	// queue time. All zero/nil when the policy is off — Preempt then takes
	// the exact pre-backoff path.
	backoffBase float64
	backoffCap  float64
	crashCount  map[int]int      // job ID -> crash-preemptions applied so far
	held        map[int]*job.Job // jobs waiting out a backoff hold
	heldUntil   map[int]float64  // job ID -> hold expiry time
	newHolds    []holdRec        // holds placed since the engine last drained them

	// Counters surfaced in results.
	Preemptions   int
	ScalingOps    int
	ReclaimOps    int
	ReclaimedSrv  int
	VacatedGPUs   int // total GPUs vacated by reclaiming (incl. collateral)
	DemandGPUs    int // total GPUs demanded by reclaiming
	FlexSatisfied int // reclaim demand satisfied by flexible-only release, in servers
	Crashes       int // injected server crashes applied
	Recoveries    int // crashed servers returned to service
}

// holdRec is one backoff hold the engine must schedule a release for.
type holdRec struct {
	jobID int
	until float64
}

func newState(c *cluster.Cluster, scaling job.ScalingModel, preemptOverhead float64) *State {
	return &State{
		Cluster:         c,
		Scaling:         scaling,
		Running:         make(map[int]*job.Job),
		lastUpdate:      make(map[int]float64),
		changed:         make(map[int]*job.Job),
		preemptOverhead: preemptOverhead,
	}
}

// advance retires work on j up to Now. Restart overhead is consumed before
// training progresses.
func (st *State) advance(j *job.Job) {
	last, ok := st.lastUpdate[j.ID]
	if !ok {
		st.lastUpdate[j.ID] = st.Now
		return
	}
	dt := st.Now - last
	st.lastUpdate[j.ID] = st.Now
	if dt <= 0 || j.State != job.Running {
		return
	}
	// Progress (Remaining, OverheadLeft) is a scheduler-visible input: JCT
	// reductions and marginal gains read it, so retiring work ends any
	// quiescent window.
	st.bump()
	if j.OverheadLeft > 0 {
		if dt <= j.OverheadLeft {
			j.OverheadLeft -= dt
			return
		}
		dt -= j.OverheadLeft
		j.OverheadLeft = 0
	}
	j.Advance(dt, st.Scaling)
}

func (st *State) markChanged(j *job.Job) { st.changed[j.ID] = j }

// bump records a scheduler-visible state mutation; see the version field.
func (st *State) bump() { st.version++ }

// Version returns the mutation counter. Two reads returning the same value
// bracket a window in which no scheduler-visible input changed.
func (st *State) Version() uint64 { return st.version }

// MarkExternalChange bumps the version on behalf of components that mutate
// the cluster directly instead of through State methods (the orchestrator
// moves servers between pools via Cluster.Move).
func (st *State) MarkExternalChange() { st.bump() }

// elasticCandidate reports whether j participates in flexible-demand
// allocation (phase 2, AFS, Pollux resizing). Both fields are immutable
// after trace generation.
func elasticCandidate(j *job.Job) bool { return j.Elastic && j.FlexRange() > 0 }

// noteFlexAdded / noteFlexRemoved maintain flexNominal as flexible workers
// are placed and released.
func (st *State) noteFlexAdded(j *job.Job, workers []job.Worker) {
	if !elasticCandidate(j) {
		return
	}
	for _, w := range workers {
		if w.Flexible {
			st.flexNominal += j.GPUsPerWorker
		}
	}
}

func (st *State) noteFlexRemoved(j *job.Job, workers int) {
	if !elasticCandidate(j) || workers == 0 {
		return
	}
	st.flexNominal -= workers * j.GPUsPerWorker
}

// compactRunning merges jobs started since the last compaction into the
// ID-sorted runningIdx, dropping entries that left Running, and rebuilds
// the elastic-candidate subset. Scratch buffers ping-pong so steady-state
// compaction allocates nothing.
func (st *State) compactRunning() {
	if !st.idxDirty {
		return
	}
	st.idxDirty = false
	nw := st.runningNew
	slices.SortFunc(nw, func(a, b *job.Job) int {
		switch {
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
	})
	old := st.runningIdx
	out := st.mergeScratch[:0]
	i, k := 0, 0
	for i < len(old) || k < len(nw) {
		var j *job.Job
		switch {
		case i >= len(old):
			j, k = nw[k], k+1
		case k >= len(nw):
			j, i = old[i], i+1
		case old[i].ID <= nw[k].ID:
			j, i = old[i], i+1
		default:
			j, k = nw[k], k+1
		}
		// A job preempted and restarted between compactions appears in both
		// lists (and can appear in runningNew more than once); emit it once.
		for i < len(old) && old[i].ID == j.ID {
			i++
		}
		for k < len(nw) && nw[k].ID == j.ID {
			k++
		}
		if st.Running[j.ID] == j {
			out = append(out, j)
		}
	}
	st.mergeScratch = st.runningIdx[:0]
	st.runningIdx = out
	for i := range st.runningNew {
		st.runningNew[i] = nil
	}
	st.runningNew = st.runningNew[:0]
	el := st.elasticIdx[:0]
	for _, j := range out {
		if elasticCandidate(j) {
			el = append(el, j)
		}
	}
	st.elasticIdx = el
}

// RunningOrdered returns the running jobs in ascending ID order — the
// deterministic iteration order every scheduler uses. The returned slice is
// owned by the state and valid until the next lifecycle mutation; callers
// must not append to or retain it.
func (st *State) RunningOrdered() []*job.Job {
	if st.Rescan {
		out := make([]*job.Job, 0, len(st.Running))
		for _, j := range st.Running {
			out = append(out, j)
		}
		sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
		return out
	}
	st.compactRunning()
	return st.runningIdx
}

// ElasticOrdered returns the running elastic candidates (Elastic &&
// FlexRange > 0) in ascending ID order, under the same ownership rules as
// RunningOrdered.
func (st *State) ElasticOrdered() []*job.Job {
	if st.Rescan {
		var out []*job.Job
		for _, j := range st.RunningOrdered() {
			if elasticCandidate(j) {
				out = append(out, j)
			}
		}
		return out
	}
	st.compactRunning()
	return st.elasticIdx
}

// FlexNominalGPUs returns Σ FlexibleWorkers × GPUsPerWorker over the
// running elastic candidates: the GPUs phase 2 may reassign on top of the
// idle ones (§5.2 counts "GPUs being used by flexible workers" as
// available).
func (st *State) FlexNominalGPUs() int {
	if st.Rescan {
		sum := 0
		for _, j := range st.Running {
			if elasticCandidate(j) {
				sum += j.FlexibleWorkers() * j.GPUsPerWorker
			}
		}
		return sum
	}
	return st.flexNominal
}

// AuditIncremental recounts every maintained dirty-set structure from the
// Running map — the recount oracle for the incremental layer, run by the
// engine after every event when auditing is on. Rescan mode has nothing
// maintained to check.
func (st *State) AuditIncremental() error {
	if st.Rescan {
		return nil
	}
	wantFlex := 0
	for _, j := range st.Running {
		if elasticCandidate(j) {
			wantFlex += j.FlexibleWorkers() * j.GPUsPerWorker
		}
	}
	if wantFlex != st.flexNominal {
		return fmt.Errorf("flexNominal=%d, recount=%d", st.flexNominal, wantFlex)
	}
	got := st.RunningOrdered()
	if len(got) != len(st.Running) {
		return fmt.Errorf("runningIdx has %d jobs, Running map has %d", len(got), len(st.Running))
	}
	elastic := 0
	for i, j := range got {
		if st.Running[j.ID] != j {
			return fmt.Errorf("runningIdx[%d] job %d not live in Running", i, j.ID)
		}
		if i > 0 && got[i-1].ID >= j.ID {
			return fmt.Errorf("runningIdx unsorted at %d: %d >= %d", i, got[i-1].ID, j.ID)
		}
		if elasticCandidate(j) {
			elastic++
		}
	}
	el := st.ElasticOrdered()
	if len(el) != elastic {
		return fmt.Errorf("elasticIdx has %d jobs, recount %d", len(el), elastic)
	}
	return nil
}

// enqueue inserts j into Pending at its priority position.
func (st *State) enqueue(j *job.Job, less func(a, b *job.Job) bool) {
	st.bump()
	i := sort.Search(len(st.Pending), func(k int) bool { return less(j, st.Pending[k]) })
	st.Pending = append(st.Pending, nil)
	copy(st.Pending[i+1:], st.Pending[i:])
	st.Pending[i] = j
	if st.Obs.Enabled() {
		cause := st.Cause
		if cause == "" {
			cause = "arrival"
		}
		st.Obs.Emit(obs.JobEv(st.Now, obs.KindJobQueue, j.ID).WithCause(cause).
			WithF(obs.Fields{"pos": i, "depth": len(st.Pending)}))
	}
}

// Start transitions a pending job to running with the given placed workers.
// The worker GPUs must already be allocated on the cluster by the placement
// code; Start records them on the job and accounts queuing time.
func (st *State) Start(j *job.Job, workers []job.Worker) {
	if j.State != job.Pending {
		invariant.Fail(fmt.Sprintf("sim:start t=%g job=%d", st.Now, j.ID), invariant.Violation{
			Rule:     invariant.RuleLifecycle,
			Subject:  fmt.Sprintf("job %d", j.ID),
			Expected: "state pending at Start",
			Actual:   fmt.Sprintf("state %v", j.State),
		})
	}
	now := int64(st.Now)
	j.QueueTime += now - j.LastEnqueue
	if !j.Started {
		j.Started = true
		j.StartTime = now
	}
	j.State = job.Running
	j.Workers = append(j.Workers[:0], workers...)
	st.Running[j.ID] = j
	st.lastUpdate[j.ID] = st.Now
	st.Starts++
	st.bump()
	st.runningNew = append(st.runningNew, j)
	st.idxDirty = true
	st.noteFlexAdded(j, workers)
	st.markChanged(j)
	if st.Obs.Enabled() {
		cause := "first"
		if j.Preemptions > 0 {
			cause = "resume"
		}
		gpus := 0
		for _, w := range workers {
			gpus += w.GPUs
		}
		st.Obs.Emit(obs.JobEv(st.Now, obs.KindJobStart, j.ID).WithCause(cause).WithF(obs.Fields{
			"workers": len(workers), "gpus": gpus, "epoch": st.Epoch, "queue_time": j.QueueTime,
		}))
		st.Obs.Add("sim.starts", 1)
	}
}

// AddWorkers scales a running job out by the given placed workers (already
// allocated on the cluster).
func (st *State) AddWorkers(j *job.Job, workers []job.Worker) {
	if j.State != job.Running {
		invariant.Fail(fmt.Sprintf("sim:scale-out t=%g job=%d", st.Now, j.ID), invariant.Violation{
			Rule:     invariant.RuleLifecycle,
			Subject:  fmt.Sprintf("job %d", j.ID),
			Expected: "state running at AddWorkers",
			Actual:   fmt.Sprintf("state %v", j.State),
		})
	}
	st.advance(j)
	j.Workers = append(j.Workers, workers...)
	st.ScalingOps++
	st.bump()
	st.noteFlexAdded(j, workers)
	st.markChanged(j)
	if st.Obs.Enabled() {
		gpus := 0
		for _, w := range workers {
			gpus += w.GPUs
		}
		st.Obs.Emit(obs.JobEv(st.Now, obs.KindJobScaleUp, j.ID).WithCause(st.Cause).WithF(obs.Fields{
			"added": len(workers), "gpus": gpus, "workers": j.NumWorkers(),
		}))
		st.Obs.Add("sim.scale_ups", 1)
	}
}

// RemoveFlexibleOnServer scales j in by removing all its flexible workers
// placed on server sid, releasing their GPUs. It returns the number of
// workers removed.
func (st *State) RemoveFlexibleOnServer(j *job.Job, sid int) int {
	return st.removeFlexible(j, func(i int, w job.Worker) bool { return w.Server == sid })
}

// RemoveFlexibleWorkers scales j in by up to n flexible workers anywhere,
// releasing their GPUs, and returns the number removed. Workers on the
// least-loaded servers are removed first to reduce fragmentation: vacating
// the lightest server is the removal most likely to empty it, keeping
// whole servers free for gang placement and voluntary loan returns.
func (st *State) RemoveFlexibleWorkers(j *job.Job, n int) int {
	if n <= 0 || j.State != job.Running {
		return 0
	}
	// Rank candidate flexible workers by ascending hosting-server load
	// (measured before any removal). Tie-break keys, in order: server load,
	// server ID, worker index in j.Workers. The explicit idx key makes the
	// comparator total, so plain sort.Slice reproduces exactly what the
	// previous SliceStable sort produced by stability — and the decision
	// order is now spelled out instead of implied.
	type cand struct {
		idx, load, srv int
	}
	cands := make([]cand, 0, len(j.Workers))
	for i, w := range j.Workers {
		if w.Flexible {
			cands = append(cands, cand{idx: i, load: st.Cluster.Server(w.Server).Used(), srv: w.Server})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].load != cands[b].load {
			return cands[a].load < cands[b].load
		}
		if cands[a].srv != cands[b].srv {
			return cands[a].srv < cands[b].srv
		}
		return cands[a].idx < cands[b].idx
	})
	if n > len(cands) {
		n = len(cands)
	}
	chosen := make(map[int]bool, n)
	for _, c := range cands[:n] {
		chosen[c.idx] = true
	}
	return st.removeFlexible(j, func(i int, w job.Worker) bool { return chosen[i] })
}

// removeFlexible removes j's flexible workers selected by sel (which sees
// each worker's index in the pre-removal j.Workers slice) and releases
// their GPUs.
func (st *State) removeFlexible(j *job.Job, sel func(int, job.Worker) bool) int {
	if j.State != job.Running {
		return 0
	}
	st.advance(j)
	kept := j.Workers[:0]
	removed := 0
	for i, w := range j.Workers {
		if w.Flexible && sel(i, w) {
			if err := st.Cluster.Server(w.Server).Release(j.ID, w.GPUs); err != nil {
				invariant.Fail(fmt.Sprintf("sim:scale-in t=%g job=%d", st.Now, j.ID), invariant.Violation{
					Rule:     invariant.RuleGPUConservation,
					Subject:  fmt.Sprintf("server %d / job %d", w.Server, j.ID),
					Expected: fmt.Sprintf("release of %d flexible GPUs to succeed", w.GPUs),
					Actual:   err.Error(),
				})
			}
			removed++
			continue
		}
		kept = append(kept, w)
	}
	j.Workers = kept
	if removed > 0 {
		st.ScalingOps++
		st.bump()
		st.noteFlexRemoved(j, removed)
		st.markChanged(j)
		if st.Obs.Enabled() {
			st.Obs.Emit(obs.JobEv(st.Now, obs.KindJobScaleDown, j.ID).WithCause(st.Cause).WithF(obs.Fields{
				"removed": removed, "workers": j.NumWorkers(),
			}))
			st.Obs.Add("sim.scale_downs", 1)
		}
	}
	return removed
}

// Preempt stops a running job, releases all its GPUs, and re-queues it. A
// job without checkpointing loses all progress (§4); either way the restart
// pays the measured preemption overhead (§7.5: 63 s average).
func (st *State) Preempt(j *job.Job, less func(a, b *job.Job) bool) {
	if j.State != job.Running {
		invariant.Fail(fmt.Sprintf("sim:preempt t=%g job=%d", st.Now, j.ID), invariant.Violation{
			Rule:     invariant.RuleLifecycle,
			Subject:  fmt.Sprintf("job %d", j.ID),
			Expected: "state running at Preempt",
			Actual:   fmt.Sprintf("state %v", j.State),
		})
	}
	st.advance(j)
	if st.Obs.Enabled() {
		cause := st.Cause
		if cause == "" {
			cause = "preempt"
		}
		held := 0
		for _, w := range j.Workers {
			held += w.GPUs
		}
		st.Obs.Emit(obs.JobEv(st.Now, obs.KindJobPreempt, j.ID).WithCause(cause).WithF(obs.Fields{
			"held_gpus": held, "workers": len(j.Workers), "checkpoint": j.Checkpoint,
		}))
		st.Obs.Add("sim.preemptions", 1)
	}
	st.noteFlexRemoved(j, j.FlexibleWorkers())
	for _, w := range j.Workers {
		st.Cluster.Server(w.Server).ReleaseJob(j.ID)
	}
	j.Workers = j.Workers[:0]
	if !j.Checkpoint {
		j.ResetProgress()
	}
	j.OverheadLeft = st.preemptOverhead
	j.State = job.Pending
	j.LastEnqueue = int64(st.Now)
	j.Preemptions++
	st.Preemptions++
	st.bump()
	delete(st.Running, j.ID)
	st.idxDirty = true
	if st.backoffBase > 0 && st.Cause == "crash" {
		// Restart backoff: the job sits out min(base·2^N, cap) seconds
		// before re-entering the queue, bounding the concurrent-restart
		// storm after a correlated outage. LastEnqueue stays at the
		// preemption time, so the hold counts as queue time.
		st.holdForBackoff(j)
	} else {
		// Re-queue under the preempting decider's cause, never "arrival".
		saved := st.Cause
		if st.Cause == "" {
			st.Cause = "preempt"
		}
		st.enqueue(j, less)
		st.Cause = saved
	}
	st.markChanged(j)
}

// holdForBackoff records a backoff hold for a crash-preempted job. The
// engine collects the new holds (takeNewHolds) and schedules their release
// events; releaseHeld requeues the job when the hold expires.
func (st *State) holdForBackoff(j *job.Job) {
	n := st.crashCount[j.ID]
	st.crashCount[j.ID] = n + 1
	shift := n
	if shift > 30 {
		shift = 30 // 2^30 · base is far beyond any cap; avoid overflow
	}
	delay := st.backoffBase * float64(uint64(1)<<shift)
	if delay > st.backoffCap {
		delay = st.backoffCap
	}
	until := st.Now + delay
	st.held[j.ID] = j
	st.heldUntil[j.ID] = until
	st.newHolds = append(st.newHolds, holdRec{jobID: j.ID, until: until})
	if st.Obs.Enabled() {
		st.Obs.Emit(obs.JobEv(st.Now, obs.KindJobBackoff, j.ID).WithCause("hold").WithF(obs.Fields{
			"attempt": n + 1, "delay": delay, "until": until,
		}))
		st.Obs.Add("sim.backoff_holds", 1)
	}
}

// takeNewHolds returns and clears the backoff holds placed since the last
// call, sorted by job ID for a deterministic release-event push order.
func (st *State) takeNewHolds() []holdRec {
	if len(st.newHolds) == 0 {
		return nil
	}
	out := st.newHolds
	st.newHolds = nil
	slices.SortFunc(out, func(a, b holdRec) int {
		switch {
		case a.jobID < b.jobID:
			return -1
		case a.jobID > b.jobID:
			return 1
		}
		return 0
	})
	return out
}

// releaseHeld requeues a job whose backoff hold expired. No-op for unknown
// IDs (the job may never have been held, e.g. when backoff is off).
func (st *State) releaseHeld(id int, less func(a, b *job.Job) bool) {
	j, ok := st.held[id]
	if !ok {
		return
	}
	delete(st.held, id)
	delete(st.heldUntil, id)
	if st.Obs.Enabled() {
		st.Obs.Emit(obs.JobEv(st.Now, obs.KindJobBackoff, id).WithCause("release").WithF(obs.Fields{
			"waited": st.Now - float64(j.LastEnqueue),
		}))
	}
	saved := st.Cause
	st.Cause = "backoff"
	st.enqueue(j, less)
	st.Cause = saved
}

// HeldJobs returns the jobs currently sitting out a backoff hold, in
// ascending ID order — the audit view over the held set.
func (st *State) HeldJobs() []*job.Job {
	if len(st.held) == 0 {
		return nil
	}
	out := make([]*job.Job, 0, len(st.held))
	for _, j := range st.held {
		out = append(out, j)
	}
	slices.SortFunc(out, func(a, b *job.Job) int {
		switch {
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
	})
	return out
}

// finish completes a running job. Per-job bookkeeping that exists only to
// advance progress (lastUpdate) is dropped here so multi-week traces do
// not accumulate dead map entries for completed jobs.
func (st *State) finish(j *job.Job) {
	st.advance(j)
	st.noteFlexRemoved(j, j.FlexibleWorkers())
	for _, w := range j.Workers {
		st.Cluster.Server(w.Server).ReleaseJob(j.ID)
	}
	j.Workers = j.Workers[:0]
	j.State = job.Completed
	j.FinishTime = int64(st.Now)
	st.bump()
	delete(st.Running, j.ID)
	st.idxDirty = true
	delete(st.lastUpdate, j.ID)
	st.markChanged(j)
	if st.Obs.Enabled() {
		jct := float64(j.FinishTime - j.Arrival)
		st.Obs.Emit(obs.JobEv(st.Now, obs.KindJobFinish, j.ID).WithF(obs.Fields{
			"jct": jct, "queue_time": j.QueueTime, "preemptions": j.Preemptions,
		}))
		st.Obs.Add("sim.finished", 1)
		st.Obs.Observe("sim.jct", jct)
		st.Obs.Observe("sim.queue_time", float64(j.QueueTime))
	}
}

// CrashServer applies an injected crash to server sid: every job with a
// worker there is evicted — scaled in when only flexible workers were hit,
// preempted through the checkpoint-restart path otherwise — and the empty
// server is quarantined out of every scheduler's reach. It returns the pool
// the server was in when it crashed (so recovery can route it home) and
// false when the crash is a no-op (unknown or already-quarantined server).
// less is the scheduler's queue priority for the re-queues.
func (st *State) CrashServer(sid int, less func(a, b *job.Job) bool) (cluster.Pool, bool) {
	s := st.Cluster.Server(sid)
	if s == nil || s.Pool == cluster.PoolQuarantine {
		return cluster.PoolQuarantine, false
	}
	origin := s.Pool
	preempted, scaledIn := 0, 0
	saved := st.Cause
	st.Cause = "crash"
	for _, id := range s.Jobs() {
		j := st.Running[id]
		if j == nil {
			invariant.Fail(fmt.Sprintf("sim:crash t=%g server=%d", st.Now, sid), invariant.Violation{
				Rule:     invariant.RuleGPUConservation,
				Subject:  fmt.Sprintf("server %d / job %d", sid, id),
				Expected: "every allocation to belong to a running job",
				Actual:   "job not in the Running index",
			})
		}
		if s.FlexibleGPUs(id) == s.JobGPUs(id) {
			// Only elastic surplus workers died: scale in, keep running.
			st.RemoveFlexibleOnServer(j, sid)
			scaledIn++
		} else {
			// A base (gang) worker died: the whole job restarts from its
			// last checkpoint, paying the usual preemption overhead.
			st.Preempt(j, less)
			preempted++
			if st.Obs.Enabled() {
				st.Obs.Emit(obs.JobEv(st.Now, obs.KindJobRestart, j.ID).WithCause("crash").
					WithF(obs.Fields{"server": sid}))
			}
		}
	}
	st.Cause = saved
	if err := st.Cluster.Move(sid, cluster.PoolQuarantine); err != nil {
		invariant.Fail(fmt.Sprintf("sim:crash t=%g server=%d", st.Now, sid), invariant.Violation{
			Rule:     invariant.RulePoolMembership,
			Subject:  fmt.Sprintf("server %d", sid),
			Expected: "crashed server empty and movable to quarantine",
			Actual:   err.Error(),
		})
	}
	st.Crashes++
	st.bump() // quarantine removes schedulable capacity even with no evictions
	if st.Obs.Enabled() {
		st.Obs.Emit(obs.Ev(st.Now, obs.KindFaultCrash).WithF(obs.Fields{
			"server": sid, "pool": origin.String(), "gpus": s.NumGPUs,
			"preempted": preempted, "scaled_in": scaledIn,
		}))
		st.Obs.Add("fault.crashes", 1)
	}
	return origin, true
}

// RecoverServer returns a quarantined server to pool `to`. Crashed training
// servers go home; a server that crashed while on loan returns to the
// inference pool instead — the failure ended the loan, and the orchestrator
// will re-loan it on demand. No-op (false) if the server is not quarantined:
// its scheduled recovery may race a crash that never happened because the
// server was already down.
func (st *State) RecoverServer(sid int, to cluster.Pool) bool {
	s := st.Cluster.Server(sid)
	if s == nil || s.Pool != cluster.PoolQuarantine {
		return false
	}
	if err := st.Cluster.Move(sid, to); err != nil {
		invariant.Fail(fmt.Sprintf("sim:recover t=%g server=%d", st.Now, sid), invariant.Violation{
			Rule:     invariant.RulePoolMembership,
			Subject:  fmt.Sprintf("server %d", sid),
			Expected: fmt.Sprintf("quarantined server movable to %v", to),
			Actual:   err.Error(),
		})
	}
	st.Recoveries++
	st.bump() // returned capacity may unlock pending work
	if st.Obs.Enabled() {
		st.Obs.Emit(obs.Ev(st.Now, obs.KindFaultRecover).WithF(obs.Fields{
			"server": sid, "to": to.String(),
		}))
		st.Obs.Add("fault.recoveries", 1)
	}
	return true
}

// CompactPending removes jobs that are no longer pending from the queue,
// preserving order. Schedulers call it after starting jobs.
func (st *State) CompactPending() {
	kept := st.Pending[:0]
	for _, j := range st.Pending {
		if j.State == job.Pending {
			kept = append(kept, j)
		}
	}
	if len(kept) == len(st.Pending) {
		return // nothing started: the queue (and the version) are unchanged
	}
	for i := len(kept); i < len(st.Pending); i++ {
		st.Pending[i] = nil
	}
	st.Pending = kept
	st.bump()
}

// FreeSchedulableGPUs returns free GPU counts on training and on-loan
// servers.
func (st *State) FreeSchedulableGPUs() (training, onLoan int) {
	return st.Cluster.FreeGPUs(cluster.PoolTraining), st.Cluster.FreeGPUs(cluster.PoolOnLoan)
}

// drainChanged returns and clears the set of jobs whose throughput or
// lifecycle changed since the last drain; the engine refreshes their
// completion events. The returned slice is a scratch buffer owned by the
// state — it is only valid until the next drain, which is exactly the
// engine's use (iterate once, immediately). Fault-heavy runs drain several
// times per event, so reusing the buffer keeps the hot loop allocation-free.
func (st *State) drainChanged() []*job.Job {
	if len(st.changed) == 0 {
		return nil
	}
	out := st.changedScratch[:0]
	for _, j := range st.changed {
		out = append(out, j)
	}
	clear(st.changed)
	slices.SortFunc(out, func(a, b *job.Job) int {
		switch {
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
	})
	st.changedScratch = out
	return out
}
