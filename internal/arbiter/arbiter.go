// Package arbiter implements the global capacity arbitrator: the resource
// orchestrator of the simulator's sharded topology (sim.Shards). It routes
// arriving jobs to training shards (least-loaded, deterministic lowest-ID
// tie-break) and brokers cross-shard GPU loans with an optimistic
// shared-state protocol — every borrowing shard's loan proposal is formed
// against a possibly-stale snapshot of the global free pool taken at epoch
// start, conflicts are detected at commit time when a proposed server was
// already granted to a lower-ID shard, and losers are retried against the
// live view a bounded number of times. The loan/reclaim/return verbs are
// shard-to-shard transfers through sim.Shards.Transfer.
//
// Every simulation runs through the arbiter: the unsharded configuration
// is the 1-training+1-inference topology, where one borrower means the
// stale snapshot is never stale and the shard's cap is exactly the
// inference scheduler's target. Reclaiming and the voluntary idle return
// are the orchestrator's single implementation (orchestrator.Reclaim,
// orchestrator.ReturnIdle) with a cross-shard transfer home as the release
// step. The global headroom is charged after every shard's verb, so
// however many shards borrow, Σ on-loan never exceeds Σ of the inference
// shards' targets.
package arbiter

import (
	"math"
	"sync"

	"lyra/internal/cluster"
	"lyra/internal/job"
	"lyra/internal/obs"
	"lyra/internal/orchestrator"
	"lyra/internal/reclaim"
	"lyra/internal/sim"
)

// DefaultMaxRetries bounds the conflict-retry rounds of one loan commit.
const DefaultMaxRetries = 3

// Arbiter is the global capacity arbitrator. The flags mirror
// orchestrator.Orchestrator's, so a shard decides exactly as the testbed's
// single-cluster orchestrator would; Targets holds one inference-capacity
// targeter per inference shard (nil when loaning is disabled — Route still
// works).
type Arbiter struct {
	// Targets[m] is inference shard m's loan-target source (usually the
	// reactive inference.Scheduler, optionally wrapped in a Forecaster).
	Targets []orchestrator.LoanTargeter
	// Policy plans reclaiming on each borrowing shard.
	Policy reclaim.Policy
	// Less is the job scheduler's queue order, used to re-enqueue preempted
	// jobs.
	Less func(a, b *job.Job) bool
	// IncludeElasticDemand / LoanOnlyDemand / EmergencyReclaim carry the
	// orchestrator's demand-estimation and degraded-mode flags through to
	// the per-shard assessments.
	IncludeElasticDemand bool
	LoanOnlyDemand       bool
	EmergencyReclaim     bool
	// MaxRetries bounds the conflict-retry rounds when a loan proposal
	// loses the optimistic commit race (0 means DefaultMaxRetries).
	MaxRetries int

	// Per-epoch scratch, reused across epochs: per-training-shard busy
	// on-loan servers and loan demand, per-inference-shard servers out on
	// loan, and the free inference pool as the stale epoch-start snapshot
	// and as the live view a conflict retry re-proposes from.
	busy, demand, loanedFrom []int
	stale, live              []int
}

// New returns an arbiter with the default retry bound.
func New(targets []orchestrator.LoanTargeter, policy reclaim.Policy, less func(a, b *job.Job) bool) *Arbiter {
	return &Arbiter{Targets: targets, Policy: policy, Less: less, MaxRetries: DefaultMaxRetries}
}

// Route implements sim.ShardArbiter: the arriving job goes to the
// least-loaded training shard, where load is the committed and queued GPU
// demand relative to the shard's own training capacity. Ties break to the
// lowest shard ID, so routing is deterministic for any arrival order.
func (a *Arbiter) Route(sh *sim.Shards, j *job.Job) int {
	best, bestLoad := 0, math.Inf(1)
	for n, st := range sh.Train() {
		tot := st.Cluster.TotalGPUs(cluster.PoolTraining)
		load := math.Inf(1)
		if tot > 0 {
			used := st.Cluster.UsedGPUs(cluster.PoolTraining) + st.Cluster.UsedGPUs(cluster.PoolOnLoan)
			queued := 0
			for _, p := range st.Pending {
				queued += p.BaseGPUs()
			}
			load = float64(used+queued) / float64(tot)
		}
		if load < bestLoad {
			best, bestLoad = n, load
		}
	}
	if sh.Tagged && sh.Rec.Enabled() {
		sh.Rec.Emit(obs.JobEv(sh.States[best].Now, obs.KindArbRoute, j.ID).WithCause("route").WithF(obs.Fields{
			"shard": best,
		}))
		sh.Rec.Add("arb.routes", 1)
	}
	return best
}

// Epoch implements sim.ShardArbiter: one arbitration epoch over the
// topology.
//
// The epoch has three parts. First the serial target pass reads each
// inference shard's loan target and nets it against the servers that shard
// already has out on loan, yielding the signed global headroom; it also
// snapshots the global free inference pool — the possibly-stale view every
// borrower will propose against. Then the assessment runs each training
// shard's read-only demand estimate (busy on-loan servers plus the
// orchestrator's loan-demand formula): inline for one training shard,
// otherwise on one goroutine per shard over purely local state. Finally
// the serial commit walks training shards in ID order: each computes its
// capacity cap (its current loan plus the remaining global headroom — for
// one borrower exactly the inference scheduler's target), emits the
// per-shard orch.epoch decision, and executes at most one verb: loan
// (optimistic proposal against the stale snapshot, conflict-retry on
// commit), reclaim, or voluntary idle return. The shard's net change in
// on-loan servers is then charged against the headroom, so a later shard
// can only borrow what earlier shards left and, under negative headroom,
// only reclaims what earlier reclaims did not already cover.
func (a *Arbiter) Epoch(sh *sim.Shards) {
	train := sh.Train()
	now := sh.States[0].Now

	// Serial target pass: signed headroom and the stale free-pool snapshot.
	a.loanedFrom = resize(a.loanedFrom, len(sh.Inference()))
	for _, st := range train {
		st.Cluster.EachPoolServer(cluster.PoolOnLoan, func(s *cluster.Server) bool {
			a.loanedFrom[sh.Home(s.ID)-sh.NumTrain]++
			return true
		})
	}
	headroom := 0
	for m := range sh.Inference() {
		headroom += a.Targets[m].TargetOnLoan(int64(now)) - a.loanedFrom[m]
	}
	a.stale = freeInference(sh, a.stale)

	// Assessment: per-shard busy and demand, read-only, no obs.
	a.busy = resize(a.busy, len(train))
	a.demand = resize(a.demand, len(train))
	assess := func(n int, st *sim.State) {
		a.busy[n] = st.Cluster.BusyServers(cluster.PoolOnLoan)
		a.demand[n] = orchestrator.DemandServers(st, a.IncludeElasticDemand, a.LoanOnlyDemand)
	}
	if len(train) == 1 {
		assess(0, train[0])
	} else {
		var wg sync.WaitGroup
		for n, st := range train {
			wg.Add(1)
			go func(n int, st *sim.State) {
				defer wg.Done()
				assess(n, st)
			}(n, st)
		}
		wg.Wait()
	}

	// Serial commit in shard ID order.
	for n, st := range train {
		shard := -1
		if sh.Tagged {
			shard = n
		}
		cur := st.Cluster.PoolSize(cluster.PoolOnLoan)
		capSrv := cur + headroom
		if capSrv < 0 {
			capSrv = 0
		}
		busy := a.busy[n]
		want := busy + a.demand[n] + orchestrator.LoanBuffer
		if want > capSrv {
			want = capSrv
		}
		if a.EmergencyReclaim {
			want = orchestrator.RaiseForCapacityLoss(st, busy, want, capSrv)
		}
		if st.Obs.Enabled() {
			f := obs.Fields{
				"cap_srv": capSrv, "on_loan": cur, "busy": busy,
				"demand_srv": a.demand[n], "want": want,
			}
			if shard >= 0 {
				f["shard"] = shard
			}
			st.Obs.Emit(obs.Ev(st.Now, obs.KindOrchEpoch).WithF(f))
		}
		switch {
		case want > cur:
			sp := st.Prof.Start("loan")
			a.loan(sh, n, want-cur)
			sp.End()
		case capSrv < cur:
			sp := st.Prof.Start("reclaim")
			orchestrator.Reclaim(st, a.Policy, a.Less, cur-capSrv, sendHome(sh), shard)
			sp.End()
		case want < cur:
			sp := st.Prof.Start("return-idle")
			orchestrator.ReturnIdle(st, cur-want, sendHome(sh), shard)
			sp.End()
		}
		headroom -= st.Cluster.PoolSize(cluster.PoolOnLoan) - cur
	}
}

// resize returns buf with length n and every element zeroed, reusing its
// backing array when it is large enough.
func resize(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// sendHome is the arbiter's release step for reclaimed and returned
// servers: each goes back into its home inference shard's pool.
func sendHome(sh *sim.Shards) func(sid int) {
	return func(sid int) { sh.Transfer(sid, sh.Home(sid), cluster.PoolInference) }
}

// freeInference overwrites buf with the global free inference pool — every
// server currently attached to an inference shard's inference pool — in
// ascending server ID order. No sort is needed: inference shards hold
// ascending, contiguous home ID ranges, their pools iterate in ID order,
// and an inference pool only ever holds its own shard's home servers (the
// engine's cross-shard audit checks this).
func freeInference(sh *sim.Shards, buf []int) []int {
	buf = buf[:0]
	for _, st := range sh.Inference() {
		st.Cluster.EachPoolServer(cluster.PoolInference, func(s *cluster.Server) bool {
			buf = append(buf, s.ID)
			return true
		})
	}
	return buf
}

// loan grants up to n servers to training shard `to` through the
// optimistic shared-state protocol: the proposal is formed against the
// stale epoch-start snapshot (lowest IDs first), and each proposed server
// is validated at commit time against the live topology. A server that was
// granted to a lower-ID shard earlier this epoch fails validation, emits
// an arb.conflict event (cause loan-conflict-retry), and is replaced by
// re-proposing from the live view — bounded by MaxRetries rounds, so a
// storm of shards proposing the same servers converges instead of
// livelocking. The live view goes into its own buffer: the stale snapshot
// must survive for the shards that commit after this one.
func (a *Arbiter) loan(sh *sim.Shards, to, n int) {
	if n <= 0 {
		return
	}
	st := sh.States[to]
	maxRetries := a.MaxRetries
	if maxRetries <= 0 {
		maxRetries = DefaultMaxRetries
	}
	granted := make([]int, 0, n)
	proposal := a.stale
	for round := 0; ; round++ {
		for _, sid := range proposal {
			if len(granted) == n {
				break
			}
			home := sh.Home(sid)
			if sh.Owner(sid) == home && sh.States[home].Cluster.Server(sid).Pool == cluster.PoolInference {
				sh.Transfer(sid, to, cluster.PoolOnLoan)
				granted = append(granted, sid)
				continue
			}
			// Optimistic commit lost: the stale view promised this server,
			// a lower-ID shard (or an earlier round) took it.
			if sh.Tagged && sh.Rec.Enabled() {
				sh.Rec.Emit(obs.Ev(st.Now, obs.KindArbConflict).WithCause("loan-conflict-retry").WithF(obs.Fields{
					"server": sid, "shard": to, "round": round,
				}))
				sh.Rec.Add("arb.conflicts", 1)
			}
		}
		if len(granted) == n || round == maxRetries {
			break
		}
		// Retry from the live view, excluding what we already hold.
		a.live = freeInference(sh, a.live)
		if len(a.live) == 0 {
			break
		}
		proposal = a.live
	}
	if st.Obs.Enabled() && len(granted) > 0 {
		ev := obs.Ev(st.Now, obs.KindOrchLoan).WithF(obs.Fields{
			"servers": granted, "count": len(granted),
		})
		if sh.Tagged {
			ev = ev.WithCause("loan-grant").WithF(obs.Fields{
				"servers": granted, "count": len(granted), "shard": to,
			})
		}
		st.Obs.Emit(ev)
		st.Obs.Add("orch.loans", 1)
	}
}
