package sim

import (
	"container/heap"
	"fmt"
	"math"
	"sync"

	"lyra/internal/cluster"
	"lyra/internal/fault"
	"lyra/internal/invariant"
	"lyra/internal/job"
	"lyra/internal/metrics"
	"lyra/internal/obs"
	"lyra/internal/prof"
)

// Config parameterizes a simulation run. Zero values use the paper's
// defaults.
type Config struct {
	// SchedInterval is the job scheduler epoch in seconds (default 60).
	// §3: the job scheduler runs at a much smaller interval than the
	// orchestrator.
	SchedInterval int64
	// OrchInterval is the resource orchestrator epoch (default 300,
	// §7.1: "Lyra's resource orchestrator runs every five minutes").
	OrchInterval int64
	// MetricsInterval is the usage sampling period (default 300, matching
	// the 5-minute monitoring of Figures 1 and 9).
	MetricsInterval int64
	// PreemptOverhead is the fixed preemption overhead in seconds added
	// whenever a job is preempted (default 63, the testbed-measured value
	// adopted by the simulation in §7.2; negative means explicitly free —
	// the root package maps lyra.Zero here).
	PreemptOverhead float64
	// Scaling is the throughput model (Linear by default).
	Scaling job.ScalingModel
	// MaxTime hard-caps simulated time; 0 means 4x the trace horizon.
	MaxTime float64
	// Audit enables the invariant audit layer (internal/invariant): after
	// every processed event the full conservation/legality suite is
	// checked over the state, and the engine panics with a structured
	// expected-vs-actual report on the first violation. Tests run with
	// Audit on; it is off by default so benchmarks and the headline
	// experiment harness keep the unchanged hot path (the audit-off cost
	// is a single nil check per event — see DESIGN.md for the measured
	// overhead of each mode).
	Audit bool
	// Obs is the optional structured event recorder (internal/obs): when
	// non-nil the engine and state emit the full decision-trace stream
	// (job lifecycle, scheduler epoch summaries, counter samples on
	// MetricsInterval). Nil keeps the hot path untouched — every emission
	// site is behind a single nil check, same discipline as Audit.
	Obs *obs.Recorder
	// Rescan selects the retained full-rescan reference scheduler path:
	// ordered running-job views are rebuilt from scratch every read, the
	// flexible-GPU count is recounted, arrival bookkeeping scans the whole
	// pending queue, and quiescent scheduler epochs are never skipped —
	// the exact pre-dirty-set behavior. The differential fuzz target runs
	// every scenario through both modes and asserts identical decisions;
	// production runs leave it off.
	Rescan bool
	// Faults is the optional deterministic fault-injection plan
	// (internal/fault): server crash/recovery events enter the event queue
	// pre-generated from the plan's seeded stream, and straggler jobs get
	// their SlowFactor stamped at engine construction. Nil (or a disabled
	// plan) costs one nil check at Run start and nothing per event — same
	// discipline as Audit and Obs.
	Faults *fault.Plan
	// Prof is the optional wall-clock span profiler (internal/prof): when
	// non-nil each processed event is wrapped in a span named after its
	// kind, with nested spans from the scheduler phases, orchestrator
	// decisions and the audit layer. Spans measure wall time only and never
	// touch the Obs stream — a profiled run's events are byte-identical to
	// an unprofiled one. Nil is the zero-overhead default (one nil check
	// per event, same discipline as Audit and Obs).
	Prof *prof.Profiler
	// BackoffBase enables per-job capped-exponential restart backoff
	// (degraded mode, DESIGN.md §13): a job preempted by its Nth crash
	// waits min(BackoffBase·2^N, BackoffCap) seconds before re-entering
	// the pending queue, bounding the restart storm after a correlated
	// outage. Zero disables the policy entirely — crash-preempted jobs
	// requeue immediately, byte-identical to the pre-backoff engine.
	BackoffBase float64
	// BackoffCap caps the backoff delay; zero with BackoffBase set means
	// 30× the base.
	BackoffCap float64
	// HystCrashes enables quarantine hysteresis: a server whose applied
	// crash count within the trailing HystWindow seconds reaches
	// HystCrashes has its scheduled recovery delayed by an escalating
	// hold-down (HystHold·2^extra, capped at 16× the hold), keeping
	// repeat-crashers out of the schedulable pools. Zero disables.
	HystCrashes int
	// HystWindow is the trailing crash-count window in seconds (default
	// 3600 when HystCrashes is set).
	HystWindow float64
	// HystHold is the base hold-down in seconds (default 900 when
	// HystCrashes is set).
	HystHold float64
}

func (c Config) withDefaults() Config {
	if c.SchedInterval == 0 {
		c.SchedInterval = 60
	}
	if c.OrchInterval == 0 {
		c.OrchInterval = 300
	}
	if c.MetricsInterval == 0 {
		c.MetricsInterval = 300
	}
	switch {
	case c.PreemptOverhead < 0:
		// Negative is the "explicitly zero" sentinel (lyra.Zero at the
		// root-package boundary): preemption is free.
		c.PreemptOverhead = 0
	case c.PreemptOverhead == 0:
		c.PreemptOverhead = 63
	}
	if c.Scaling == (job.ScalingModel{}) {
		c.Scaling = job.Linear
	}
	if c.BackoffBase > 0 && c.BackoffCap <= 0 {
		c.BackoffCap = 30 * c.BackoffBase
	}
	if c.HystCrashes > 0 {
		if c.HystWindow <= 0 {
			c.HystWindow = 3600
		}
		if c.HystHold <= 0 {
			c.HystHold = 900
		}
	}
	return c
}

// event kinds, in tie-break priority order at equal timestamps: arrivals
// land first, completions free resources, domain-outage markers announce a
// correlated failure before its member crashes strike, injected crashes
// strike (after finishes — a job done at t survives a crash at t) and
// recoveries return capacity, backoff releases requeue held jobs (before
// the same-instant orchestrator/scheduler epochs see the queue), the
// orchestrator moves servers, then the scheduler runs with a current view,
// then metrics sample. Fault, domain and release events only exist when
// their feature is enabled, so inserting their kinds here cannot perturb an
// un-faulted run's tie-breaks.
type eventKind uint8

const (
	evArrival eventKind = iota
	evFinish
	evDomain
	evCrash
	evRecover
	evRelease
	evOrch
	evSched
	evMetrics
)

func (k eventKind) String() string {
	switch k {
	case evArrival:
		return "arrival"
	case evFinish:
		return "finish"
	case evDomain:
		return "domain"
	case evCrash:
		return "crash"
	case evRecover:
		return "recover"
	case evRelease:
		return "release"
	case evOrch:
		return "orch"
	case evSched:
		return "sched"
	case evMetrics:
		return "metrics"
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// profEventName labels the profiling span wrapping each event kind. The
// periodic kinds get dotted names so the self-timing report reads as "time
// in scheduler epochs" vs "time in orchestrator epochs" at the top level.
var profEventName = [...]string{
	evArrival: "arrival",
	evFinish:  "finish",
	evDomain:  "domain",
	evCrash:   "crash",
	evRecover: "recover",
	evRelease: "release",
	evOrch:    "epoch.orch",
	evSched:   "epoch.sched",
	evMetrics: "metrics",
}

type event struct {
	t       float64
	kind    eventKind
	jobID   int
	version int
	seq     int64
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	if h[i].kind != h[j].kind {
		return h[i].kind < h[j].kind
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// MemorylessScheduler marks schedulers whose Schedule is a pure function of
// the State: invoked twice against an identical state, the second call
// repeats the first call's decisions. The engine may then skip a scheduler
// epoch whose state is provably identical to one the scheduler already ran
// against without mutating anything. Lyra, FIFO, Gandiva and AFS qualify;
// Pollux does not (its genetic search is reseeded per epoch, so two epochs
// over the same state can legitimately decide differently).
type MemorylessScheduler interface {
	Memoryless() bool
}

// Engine drives one simulation over a sharded topology: one global serial
// event heap, per-shard states mutated only by their own events, and a
// scheduler phase that runs inline for a single training shard and fans
// out to one goroutine per training shard otherwise, with an ID-ordered
// deterministic merge re-emitting each shard's event fragment. The
// unsharded configuration is the 1+1 topology; its event stream is the
// golden stream.
type Engine struct {
	cfg     Config
	sh      *Shards
	arb     ShardArbiter
	orch    bool
	refTopo *cluster.Cluster
	infUtil []func(int64) float64

	jobs     []*job.Job
	byID     map[int]*job.Job
	jobShard map[int]int
	horizon  int64

	events  eventHeap
	seq     int64
	version map[int]int
	now     float64

	completed int
	ranOnLoan map[int]bool
	audit     *invariant.Auditor
	// recoverSh / recoverPool route each quarantined server on recovery:
	// the shard holding it (its home shard for servers that died on loan —
	// the crash ended the loan and the quarantined husk was transferred
	// home) and the pool it returns to.
	recoverSh   map[int]int
	recoverPool map[int]cluster.Pool
	// quarAt records when each quarantined server went down; lostGPUSec
	// integrates quarantined capacity over the run, one recovery at a time
	// in event order (result adds the residual of servers still down).
	quarAt     map[int]float64
	lostGPUSec float64
	// domainSched is the correlated-outage marker timeline (rack/zone
	// down/up); evDomain events carry an index into it in their jobID
	// field. The markers are pushed whenever the schedule is non-empty —
	// not only when recording — so the event heap is identical between
	// obs-on and obs-off runs.
	domainSched []fault.DomainEvent
	// crashTimes records applied crash times per server for quarantine
	// hysteresis; entries older than HystWindow are pruned on append.
	crashTimes map[int][]float64
	// recoverSeq versions hysteresis hold-down retries per server: a
	// scheduled (version-0) recovery is always considered, but a held
	// retry is only honored when its version matches the latest hold —
	// a newer hold or an intervening crash supersedes it.
	recoverSeq map[int]int

	// Cross-shard conservation baseline: global GPU and server totals at
	// construction, which every audited transition must preserve.
	totalGPUs    int
	totalServers int

	trainUsage   *metrics.TimeSeries
	overallUsage *metrics.TimeSeries
	onLoanUsage  *metrics.TimeSeries
	loanFrom     []int // sample's per-inference-shard on-loan GPUs, reused

	hourlyArrived []int
	hourlyQueued  []int
	// arrived lists jobs enqueued since the last scheduler epoch: only
	// those can be first-try queuing jobs (Figure 2), so noteFirstTry
	// walks this delta instead of the whole pending queue.
	arrived []*job.Job

	// Quiescent-epoch skip (DESIGN.md §10), per training shard: when the
	// scheduler is memoryless (a pure function of State) and the shard's
	// state version at this epoch equals the version at the start of its
	// previous Schedule call, the previous pass already ran against this
	// exact state and changed nothing — re-running it is a no-op by
	// construction, so the engine skips it. Any mutation (arrival, finish,
	// progress, crash, move) bumps the version and ends the window.
	skipOK        []bool
	schedVerSet   []bool
	schedStartVer []uint64
	skippedEpochs int64
	run           []bool        // shards scheduled this epoch, reused
	before        []epochBefore // per-shard epoch-summary baselines, reused

	// Per-training-shard obs fragment machinery for the concurrent
	// scheduler phase (more than one training shard): each shard's
	// goroutine records into its own Buffer through a fork sharing the
	// global counter registry; the serial merge re-emits the fragments in
	// shard ID order.
	frag  []*obs.Buffer
	forks []*obs.Recorder
}

// epochBefore snapshots a training shard's counters ahead of a scheduler
// epoch for the sched.epoch summary event.
type epochBefore struct{ q, starts, preempt, scale int }

// New builds an engine replaying jobs (sorted by arrival) on the given
// topology. horizon is the trace length in seconds.
func New(tp Topology, jobs []*job.Job, horizon int64, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	sh := NewShards(tp, cfg)
	nT := sh.NumTrain
	e := &Engine{
		cfg:           cfg,
		sh:            sh,
		arb:           tp.Arbiter,
		orch:          tp.Orchestrate,
		refTopo:       tp.RefTopo,
		infUtil:       tp.InfUtil,
		jobs:          jobs,
		byID:          make(map[int]*job.Job, len(jobs)),
		jobShard:      make(map[int]int, len(jobs)),
		horizon:       horizon,
		version:       make(map[int]int),
		ranOnLoan:     make(map[int]bool),
		skipOK:        make([]bool, nT),
		schedVerSet:   make([]bool, nT),
		schedStartVer: make([]uint64, nT),
		run:           make([]bool, nT),
		before:        make([]epochBefore, nT),
		loanFrom:      make([]int, len(tp.InfUtil)),
	}
	for _, j := range jobs {
		e.byID[j.ID] = j
	}
	for n, s := range tp.Scheds {
		if m, ok := s.(MemorylessScheduler); ok && m.Memoryless() && !cfg.Rescan {
			e.skipOK[n] = true
		}
	}
	if cfg.Audit {
		e.audit = invariant.New()
		for _, st := range sh.States {
			e.totalGPUs += totalClusterGPUs(st.Cluster)
			e.totalServers += st.Cluster.NumServers()
		}
	}
	if cfg.Faults.Enabled() {
		e.recoverSh = make(map[int]int)
		e.recoverPool = make(map[int]cluster.Pool)
		e.quarAt = make(map[int]float64)
		if cfg.Faults.StragglerFrac > 0 {
			for _, j := range jobs {
				j.SlowFactor = cfg.Faults.SlowFactorFor(j.ID)
			}
		}
		if cfg.HystCrashes > 0 {
			e.crashTimes = make(map[int][]float64)
			e.recoverSeq = make(map[int]int)
		}
	}
	if cfg.BackoffBase > 0 {
		for _, st := range sh.Train() {
			st.backoffBase = cfg.BackoffBase
			st.backoffCap = cfg.BackoffCap
			st.crashCount = make(map[int]int)
			st.held = make(map[int]*job.Job)
			st.heldUntil = make(map[int]float64)
		}
	}
	if cfg.Obs.Enabled() && nT > 1 {
		e.frag = make([]*obs.Buffer, nT)
		e.forks = make([]*obs.Recorder, nT)
		for n := range e.frag {
			e.frag[n] = &obs.Buffer{}
			e.forks[n] = cfg.Obs.Fork(e.frag[n])
		}
	}
	e.trainUsage = metrics.NewTimeSeries(0, cfg.MetricsInterval)
	e.overallUsage = metrics.NewTimeSeries(0, cfg.MetricsInterval)
	e.onLoanUsage = metrics.NewTimeSeries(0, cfg.MetricsInterval)
	hours := int(horizon/3600) + 1
	e.hourlyArrived = make([]int, hours)
	e.hourlyQueued = make([]int, hours)
	return e
}

func (e *Engine) push(t float64, kind eventKind, jobID, version int) {
	e.seq++
	heap.Push(&e.events, event{t: t, kind: kind, jobID: jobID, version: version, seq: e.seq})
}

// setNow stamps the event time onto every shard state: serial mutators and
// the concurrent scheduler phase all read their own state's clock.
func (e *Engine) setNow(t float64) {
	e.now = t
	for _, st := range e.sh.States {
		st.Now = t
	}
}

// shardOf returns the state owning job j's shard.
func (e *Engine) shardOf(id int) *State {
	return e.sh.States[e.jobShard[id]]
}

// refresh recomputes the completion event of a job after any throughput
// change and records on-loan residency, against the job's shard state.
func (e *Engine) refresh(st *State, j *job.Job) {
	e.version[j.ID]++
	if j.State != job.Running {
		return
	}
	for _, w := range j.Workers {
		if st.Cluster.Server(w.Server).Pool == cluster.PoolOnLoan {
			e.ranOnLoan[j.ID] = true
			break
		}
	}
	rt, ok := j.RemainingRuntime(st.Scaling)
	if !ok {
		invariant.Fail(fmt.Sprintf("sim:refresh t=%g job=%d", st.Now, j.ID), invariant.Violation{
			Rule:     invariant.RuleThroughput,
			Subject:  fmt.Sprintf("job %d", j.ID),
			Expected: "a positive throughput for the current allocation",
			Actual:   fmt.Sprintf("no throughput (%d workers, scaling %+v)", j.NumWorkers(), st.Scaling),
			Detail:   "running job cannot make progress; allocation violates the throughput model's domain",
		})
	}
	e.push(st.Now+rt, evFinish, j.ID, e.version[j.ID])
}

// drain flushes every training shard's changed set in shard ID order.
func (e *Engine) drain() {
	for _, st := range e.sh.Train() {
		for _, j := range st.drainChanged() {
			e.refresh(st, j)
		}
	}
}

// noteCrash records an applied crash for quarantine hysteresis, pruning
// entries that have aged out of the trailing window.
func (e *Engine) noteCrash(sid int) {
	ts := e.crashTimes[sid]
	cut := e.now - e.cfg.HystWindow
	kept := ts[:0]
	for _, t := range ts {
		if t > cut {
			kept = append(kept, t)
		}
	}
	e.crashTimes[sid] = append(kept, e.now)
}

// holdRecovery decides whether a recovery event for a repeat-crashing
// server is delayed by quarantine hysteresis. A scheduled recovery carries
// version 0 and is always considered; a held retry is only honored when
// its version matches the latest hold for the server (older retries were
// superseded by a newer hold or an intervening crash). When the server's
// applied crash count within the trailing window still reaches the
// threshold, the recovery is re-pushed after an escalating hold-down and
// the server stays quarantined; crashes age out of the window while it is
// held, so the hold always terminates.
func (e *Engine) holdRecovery(ev event) bool {
	sid := ev.jobID
	if ev.version != 0 && ev.version != e.recoverSeq[sid] {
		return true // superseded retry: drop it, a later recovery governs
	}
	recent := 0
	cut := e.now - e.cfg.HystWindow
	for _, t := range e.crashTimes[sid] {
		if t > cut {
			recent++
		}
	}
	if recent < e.cfg.HystCrashes {
		return false
	}
	extra := recent - e.cfg.HystCrashes
	if extra > 4 {
		extra = 4 // cap the escalation at 16x the base hold
	}
	hold := e.cfg.HystHold * float64(uint64(1)<<extra)
	e.recoverSeq[sid]++
	e.push(e.now+hold, evRecover, sid, e.recoverSeq[sid])
	if rec := e.sh.Rec; rec.Enabled() {
		rec.Emit(obs.Ev(e.now, obs.KindFaultHolddown).WithCause("hysteresis").WithF(obs.Fields{
			"server": sid, "recent": recent, "hold": hold, "until": e.now + hold,
		}))
		rec.Add("fault.holddowns", 1)
	}
	return true
}

// Run executes the simulation to completion (all jobs done) or the MaxTime
// cap, and returns the collected results. The default cap leaves room for
// the drain phase: a job arriving at the end of the horizon may run for
// days (the trace generator's runtime clamp) on top of its queuing delay.
func (e *Engine) Run() *Result {
	maxTime := e.cfg.MaxTime
	if maxTime == 0 {
		maxTime = 4*float64(e.horizon) + 7*86400
	}
	for _, j := range e.jobs {
		e.push(float64(j.Arrival), evArrival, j.ID, 0)
	}
	e.push(0, evSched, 0, 0)
	if e.orch {
		e.push(0, evOrch, 0, 0)
	}
	e.push(0, evMetrics, 0, 0)
	if e.cfg.Faults.Enabled() {
		// The whole crash/recovery timeline — independent per-server draws
		// plus correlated rack/zone outages, merged per server — is
		// pre-generated from the plan's seeded streams over the reference
		// topology (per-server draws key on global server IDs, domain
		// streams on its rack/zone indexes), so it is identical regardless
		// of how the run unfolds or how the cluster is sharded. The
		// event's jobID field carries the server ID (crash/recover) or the
		// index into domainSched (domain markers).
		evs, devs := fault.FullSchedule(*e.cfg.Faults, e.refTopo, e.horizon)
		for _, fe := range evs {
			kind := evCrash
			if fe.Recover {
				kind = evRecover
			}
			e.push(fe.T, kind, fe.Server, 0)
		}
		e.domainSched = devs
		for i := range devs {
			e.push(devs[i].T, evDomain, i, 0)
		}
	}
	heap.Init(&e.events)

	for e.events.Len() > 0 {
		ev := heap.Pop(&e.events).(event)
		if ev.t > maxTime {
			break
		}
		e.setNow(ev.t)
		sp := e.cfg.Prof.Start(profEventName[ev.kind])
		switch ev.kind {
		case evArrival:
			e.arrive(ev)
		case evFinish:
			e.finishEvent(ev)
		case evDomain:
			e.domainEvent(ev)
		case evCrash:
			e.crashEvent(ev)
		case evRecover:
			e.recoverEvent(ev)
		case evRelease:
			e.shardOf(ev.jobID).releaseHeld(ev.jobID, e.sh.Less)
		case evOrch:
			e.arb.Epoch(e.sh)
			// The arbiter moves servers through Cluster.Move/Transfer
			// directly; conservatively treat every epoch as a mutation.
			for _, st := range e.sh.States {
				st.MarkExternalChange()
			}
			e.drain()
			if e.completed < len(e.jobs) {
				e.push(e.now+float64(e.cfg.OrchInterval), evOrch, 0, 0)
			}
		case evSched:
			e.schedEvent()
		case evMetrics:
			// Usage is sampled over the trace window only; the drain
			// phase after the last arrival would otherwise dilute the
			// means the paper reports over the measurement period.
			e.sample()
			e.sh.Rec.EmitCounters(e.now)
			if next := e.now + float64(e.cfg.MetricsInterval); next < float64(e.horizon) && next < maxTime {
				e.push(next, evMetrics, 0, 0)
			}
		}
		if e.audit != nil {
			asp := e.cfg.Prof.Start("audit")
			e.auditAfter(ev)
			asp.End()
		}
		sp.End()
	}
	return e.result()
}

// arrive routes an arriving job to its training shard and enqueues it. An
// untagged (1+1) topology has one answer and nothing to record, so it
// skips the arbiter.
func (e *Engine) arrive(ev event) {
	j := e.byID[ev.jobID]
	target := 0
	if e.sh.Tagged {
		target = e.arb.Route(e.sh, j)
	}
	e.jobShard[j.ID] = target
	hour := int(j.Arrival / 3600)
	if hour < len(e.hourlyArrived) {
		e.hourlyArrived[hour]++
	}
	if rec := e.sh.Rec; rec.Enabled() {
		rec.Emit(obs.JobEv(e.now, obs.KindJobSubmit, j.ID).WithF(obs.Fields{
			"min_workers": j.MinWorkers, "max_workers": j.MaxWorkers,
			"gpus_per_worker": j.GPUsPerWorker, "work": j.Work,
		}))
		rec.Add("sim.arrivals", 1)
	}
	e.sh.States[target].enqueue(j, e.sh.Less)
	if !e.cfg.Rescan {
		e.arrived = append(e.arrived, j)
	}
}

func (e *Engine) finishEvent(ev event) {
	j := e.byID[ev.jobID]
	if j.State != job.Running || ev.version != e.version[j.ID] {
		return // stale event from a superseded allocation
	}
	st := e.shardOf(j.ID)
	st.advance(j)
	if j.Remaining > 1e-6 || j.OverheadLeft > 1e-9 {
		// Numerical safety: reschedule at the recomputed time.
		st.markChanged(j)
		e.drain()
		return
	}
	st.finish(j)
	e.completed++
	st.drainChanged() // no new finish event needed
	// The job can never run again: drop its stale-event version counter
	// so long traces don't accumulate dead entries.
	delete(e.version, j.ID)
}

// domainEvent is a pure announcement: the member-server crashes/recoveries
// of a correlated outage are already in the schedule as ordinary
// crash/recover events (merged per server), so the marker only records
// that they share one cause.
func (e *Engine) domainEvent(ev event) {
	if rec := e.sh.Rec; rec.Enabled() {
		d := e.domainSched[ev.jobID]
		name, servers := "rack", e.refTopo.RackServers(d.Domain)
		if d.Zone {
			name, servers = "zone", e.refTopo.ZoneServers(d.Domain)
		}
		cause := name + "-down"
		if d.Recover {
			cause = name + "-up"
		}
		rec.Emit(obs.Ev(e.now, obs.KindFaultDomain).WithCause(cause).WithF(obs.Fields{
			"domain": d.Domain, "servers": len(servers),
		}))
		rec.Add("fault.domain_events", 1)
	}
}

func (e *Engine) crashEvent(ev event) {
	sid := ev.jobID
	owner := e.sh.Owner(sid)
	st := e.sh.States[owner]
	if origin, ok := st.CrashServer(sid, e.sh.Less); ok {
		e.faultChanged()
		e.quarAt[sid] = e.now
		recoverSh, to := owner, origin
		if origin == cluster.PoolOnLoan {
			// The crash ended the loan: the quarantined husk transfers to
			// its home inference shard and will recover into that shard's
			// inference pool.
			recoverSh, to = e.sh.Home(sid), cluster.PoolInference
			if recoverSh != owner {
				e.sh.Transfer(sid, recoverSh, cluster.PoolQuarantine)
			}
		}
		e.recoverSh[sid] = recoverSh
		e.recoverPool[sid] = to
		if e.cfg.HystCrashes > 0 {
			e.noteCrash(sid)
		}
		for _, h := range st.takeNewHolds() {
			e.push(h.until, evRelease, h.jobID, 0)
		}
	} else if e.cfg.HystCrashes > 0 {
		// A scheduled crash striking a server still held in quarantine
		// supersedes its pending hysteresis retry: the new outage's own
		// scheduled recovery governs from here.
		e.recoverSeq[sid]++
	}
	e.drain()
}

func (e *Engine) recoverEvent(ev event) {
	sid := ev.jobID
	if to, ok := e.recoverPool[sid]; ok {
		if e.cfg.HystCrashes > 0 && e.holdRecovery(ev) {
			return
		}
		st := e.sh.States[e.recoverSh[sid]]
		if st.RecoverServer(sid, to) {
			e.faultChanged()
			e.lostGPUSec += (e.now - e.quarAt[sid]) * float64(st.Cluster.Server(sid).NumGPUs)
			delete(e.quarAt, sid)
		}
		delete(e.recoverPool, sid)
		delete(e.recoverSh, sid)
	}
}

// faultChanged marks every training shard changed after an applied crash
// or recovery, as after an arbiter epoch: a fault anywhere in the fleet
// ends every shard's quiescent window.
func (e *Engine) faultChanged() {
	for _, st := range e.sh.Train() {
		st.MarkExternalChange()
	}
}

// schedEvent is the scheduling phase. Every training shard whose state
// changed since its scheduler last ran gets a Schedule call over purely
// local state: inline for a single training shard, with the global
// recorder and profiler attached; otherwise on concurrent goroutines
// (scheduleConcurrent). Then the first-try bookkeeping and completion-event
// refreshes drain, and each shard's epoch summary is emitted — byte-
// identical across runs and goroutine schedules.
func (e *Engine) schedEvent() {
	train := e.sh.Train()
	rec := e.sh.Rec
	if rec.Enabled() {
		for n, st := range train {
			e.before[n] = epochBefore{len(st.Pending), st.Starts, st.Preemptions, st.ScalingOps}
		}
	}
	for n, st := range train {
		st.Epoch++
		e.run[n] = false
		// Quiescent-epoch skip. Obs runs always schedule: a pass that
		// changes nothing still emits decision-trace events (e.g. the
		// phase-2 summary), and the golden stream pins those bytes.
		ver := st.Version()
		if e.skipOK[n] && !rec.Enabled() && e.schedVerSet[n] && ver == e.schedStartVer[n] {
			e.skippedEpochs++
			continue
		}
		e.schedStartVer[n], e.schedVerSet[n] = ver, true
		e.run[n] = true
	}
	if len(train) == 1 {
		if e.run[0] {
			e.sh.Scheds[0].Schedule(train[0])
		}
	} else {
		e.scheduleConcurrent()
	}
	e.noteFirstTry()
	e.drain()
	if rec.Enabled() {
		for n, st := range train {
			b := e.before[n]
			freeTrain, freeLoan := st.FreeSchedulableGPUs()
			f := obs.Fields{
				"epoch": st.Epoch, "queue_before": b.q, "queue_after": len(st.Pending),
				"running": len(st.Running), "started": st.Starts - b.starts,
				"preempted":   st.Preemptions - b.preempt,
				"scaling_ops": st.ScalingOps - b.scale,
				"free_train":  freeTrain, "free_loan": freeLoan,
				"on_loan_srv": st.Cluster.PoolSize(cluster.PoolOnLoan),
			}
			if e.sh.Tagged {
				f["shard"] = n
			}
			rec.Emit(obs.Ev(e.now, obs.KindSchedEpoch).WithF(f))
		}
	}
	if e.completed < len(e.jobs) {
		e.push(e.now+float64(e.cfg.SchedInterval), evSched, 0, 0)
	}
}

// scheduleConcurrent runs each marked training shard's Schedule on its own
// goroutine, recording obs into a private fragment buffer through a fork of
// the global recorder (counter adds are commutative and land directly in
// the shared registry), then re-emits the fragments in shard ID order. The
// profiler is detached for the concurrent phase: its span stack is not
// safe for concurrent use.
func (e *Engine) scheduleConcurrent() {
	train := e.sh.Train()
	rec := e.sh.Rec
	var wg sync.WaitGroup
	for n, st := range train {
		if !e.run[n] {
			continue
		}
		if rec.Enabled() {
			st.Obs = e.forks[n]
		}
		st.Prof = nil
		wg.Add(1)
		go func(n int, st *State) {
			defer wg.Done()
			e.sh.Scheds[n].Schedule(st)
		}(n, st)
	}
	wg.Wait()
	for n, st := range train {
		st.Obs = rec
		st.Prof = e.cfg.Prof
		if rec.Enabled() && e.run[n] {
			for _, fe := range e.frag[n].Drain() {
				rec.Emit(fe)
			}
		}
	}
}

// noteFirstTry counts jobs that failed to get resources on their first
// scheduling attempt (Figure 2's definition of a queuing job). Only jobs
// that arrived since the previous scheduler epoch can be first-try misses —
// scheduler epochs are SchedInterval apart, so "arrived within the last
// SchedInterval" and "arrived since the last epoch" select the same jobs —
// which makes the per-epoch cost proportional to new arrivals, not to the
// whole pending queue. Rescan mode keeps the full-queue scan as the
// reference the differential fuzz target compares against.
func (e *Engine) noteFirstTry() {
	if e.cfg.Rescan {
		for _, st := range e.sh.Train() {
			for _, j := range st.Pending {
				if j.Preemptions > 0 || j.Started {
					continue
				}
				// First epoch strictly after arrival has passed without a
				// start: already counted at an earlier epoch.
				if st.Now-float64(j.Arrival) >= float64(e.cfg.SchedInterval) {
					continue
				}
				hour := int(j.Arrival / 3600)
				if hour < len(e.hourlyQueued) {
					e.hourlyQueued[hour]++
				}
			}
		}
		return
	}
	for _, j := range e.arrived {
		if j.State != job.Pending || j.Started || j.Preemptions > 0 {
			continue
		}
		hour := int(j.Arrival / 3600)
		if hour < len(e.hourlyQueued) {
			e.hourlyQueued[hour]++
		}
	}
	e.arrived = e.arrived[:0]
}

// sample appends one usage sample: per-pool sums taken across shards, and
// the inference busy estimate taken per inference shard — each shard's
// utilization series over its own size plus the GPUs it currently has out
// on loan, capped by what remains in its pool.
func (e *Engine) sample() {
	var usedTrain, totTrain, usedLoan, totLoan int
	for _, st := range e.sh.States {
		c := st.Cluster
		usedTrain += c.UsedGPUs(cluster.PoolTraining)
		totTrain += c.TotalGPUs(cluster.PoolTraining)
		usedLoan += c.UsedGPUs(cluster.PoolOnLoan)
		totLoan += c.TotalGPUs(cluster.PoolOnLoan)
	}
	if totTrain > 0 {
		e.trainUsage.Append(float64(usedTrain) / float64(totTrain))
	}
	if totLoan > 0 {
		e.onLoanUsage.Append(float64(usedLoan) / float64(totLoan))
	} else {
		e.onLoanUsage.Append(math.NaN())
	}
	var totInf int
	for _, st := range e.sh.States {
		totInf += st.Cluster.TotalGPUs(cluster.PoolInference)
	}
	totInf += totLoan
	if len(e.infUtil) > 0 && totInf > 0 {
		// Loaned GPUs are attributed to their home shard, so each shard's
		// utilization applies to its full nominal size and is capped by
		// the GPUs still in its pool.
		loanFrom := e.loanFrom
		clear(loanFrom)
		for _, st := range e.sh.Train() {
			st.Cluster.EachPoolServer(cluster.PoolOnLoan, func(s *cluster.Server) bool {
				loanFrom[e.sh.Home(s.ID)-e.sh.NumTrain] += s.NumGPUs
				return true
			})
		}
		infBusy := 0.0
		for m, inf := range e.sh.Inference() {
			totInfM := inf.Cluster.TotalGPUs(cluster.PoolInference) + loanFrom[m]
			if totInfM == 0 {
				continue
			}
			busy := e.infUtil[m](int64(e.now)) * float64(totInfM)
			if maxBusy := float64(totInfM - loanFrom[m]); busy > maxBusy {
				busy = maxBusy
			}
			infBusy += busy
		}
		overall := (float64(usedTrain+usedLoan) + infBusy) / float64(totTrain+totInf)
		e.overallUsage.Append(overall)
	} else if totTrain+totInf > 0 {
		e.overallUsage.Append(float64(usedTrain+usedLoan) / float64(totTrain+totInf))
	}
	// A degenerate cluster (no capacity at all, e.g. everything crashed and
	// quarantined) appends nothing, mirroring the trainUsage guard above —
	// an unguarded divide here poisoned the overall-usage mean with NaN.
}
