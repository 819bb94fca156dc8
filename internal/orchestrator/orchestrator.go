// Package orchestrator implements the pieces of Lyra's resource
// orchestrator (Figure 4): the inference side's loan targets (LoanTargeter,
// Forecaster), the training side's loan-demand estimate, and the one
// implementation of reclaiming — releasing flexible server groups by
// scaling elastic jobs in, then preempting jobs on the servers selected by
// the reclaiming policy (§4) — and of the voluntary idle return. The
// simulator's arbiter (internal/arbiter) drives them per training shard.
// Orchestrator.Epoch is the single-State epoch the prototype testbed
// (internal/testbed) runs every orchestrator interval.
package orchestrator

import (
	"fmt"
	"sort"

	"lyra/internal/cluster"
	"lyra/internal/invariant"
	"lyra/internal/job"
	"lyra/internal/obs"
	"lyra/internal/place"
	"lyra/internal/reclaim"
	"lyra/internal/sim"
)

// Orchestrator wires the inference scheduler's instructions to a reclaim
// policy and executes both directions of capacity movement.
type Orchestrator struct {
	Inf    LoanTargeter
	Policy reclaim.Policy
	// Less is the job scheduler's queue order, used to re-enqueue
	// preempted jobs (Figure 4, step 5).
	Less func(a, b *job.Job) bool
	// IncludeElasticDemand adds running elastic jobs' unmet flexible
	// demand to the loan-demand estimate. Enable it only when the job
	// scheduler actually performs elastic scaling, or the orchestrator
	// borrows servers nobody will fill.
	IncludeElasticDemand bool
	// LoanOnlyDemand marks the Opportunistic scheme (§7.1), where
	// fungible jobs may run exclusively on inference-cluster servers:
	// their backlog then cannot be offset by free training capacity when
	// estimating loan demand.
	LoanOnlyDemand bool
	// EmergencyReclaim enables the degraded-mode capacity-loss response
	// (DESIGN.md §13): when healthy training capacity falls below the
	// currently-running gang floor (Σ MinWorkers × GPUsPerWorker), the
	// loan target is raised ahead of the normal idle-return path to cover
	// the crater — still capped by the inference scheduler's target, so
	// the inference utilization threshold is respected. Off by default;
	// runs without it are byte-identical to the pre-policy orchestrator.
	EmergencyReclaim bool
	// Audit, when set, re-runs the invariant suite (internal/invariant)
	// after every epoch, panicking on a violation — the same net the
	// simulator's engine casts, available to substrates (unit tests, the
	// testbed) that drive Epoch directly.
	Audit *invariant.Auditor
}

// New returns an orchestrator. The targeter is usually the reactive
// inference.Scheduler; wrap it in a Forecaster for proactive reclaiming.
func New(inf LoanTargeter, policy reclaim.Policy, less func(a, b *job.Job) bool) *Orchestrator {
	return &Orchestrator{Inf: inf, Policy: policy, Less: less}
}

// LoanBuffer is the slack kept on loan beyond measured demand. Zero keeps
// the on-loan servers saturated (Figure 9: usage consistently above 92%) at
// the price of loans lagging a demand spike by one orchestrator epoch.
const LoanBuffer = 0

// Epoch runs one orchestrator epoch over a single State, for the testbed
// (simulations go through internal/arbiter). The inference scheduler's
// target is a *cap* on loaning, not a mandate: Lyra borrows only as many
// servers as the training side can actually use (pending base demand plus
// unmet elastic flexible demand, plus a small buffer), which is what keeps
// the paper's on-loan servers above 92% utilization (Figure 9). Idle on-loan servers
// beyond demand are returned voluntarily — no preemption — while a cap
// decrease forces reclaiming through the policy.
func (o *Orchestrator) Epoch(st *sim.State) {
	capSrv := o.Inf.TargetOnLoan(int64(st.Now))
	cur := st.Cluster.PoolSize(cluster.PoolOnLoan)
	// On-loan servers hosting any workers are never trimmed voluntarily.
	busy := st.Cluster.BusyServers(cluster.PoolOnLoan)
	demandSrv := DemandServers(st, o.IncludeElasticDemand, o.LoanOnlyDemand)
	want := busy + demandSrv + LoanBuffer
	if want > capSrv {
		want = capSrv
	}
	if o.EmergencyReclaim {
		want = RaiseForCapacityLoss(st, busy, want, capSrv)
	}
	if st.Obs.Enabled() {
		st.Obs.Emit(obs.Ev(st.Now, obs.KindOrchEpoch).WithF(obs.Fields{
			"cap_srv": capSrv, "on_loan": cur, "busy": busy,
			"demand_srv": demandSrv, "want": want,
		}))
	}
	switch {
	case want > cur:
		sp := st.Prof.Start("loan")
		o.loan(st, want-cur)
		sp.End()
	case capSrv < cur:
		sp := st.Prof.Start("reclaim")
		Reclaim(st, o.Policy, o.Less, cur-capSrv, o.moveHome(st, "reclaim"), -1)
		sp.End()
	case want < cur:
		sp := st.Prof.Start("return-idle")
		ReturnIdle(st, cur-want, o.moveHome(st, "return idle"), -1)
		sp.End()
	}
	if o.Audit != nil {
		ctx := fmt.Sprintf("orchestrator:epoch t=%g", st.Now)
		if err := o.Audit.Audit(st.AuditView(ctx, o.Less)); err != nil {
			panic(err)
		}
	}
}

// RaiseForCapacityLoss is the emergency-reclaim policy, shared with the
// arbiter (internal/arbiter): when a correlated outage quarantines enough
// training servers that the healthy training capacity no longer covers the
// running jobs' gang floor, the loan target is raised by the deficit
// (converted at the T4 memory-doubling rate) so on-loan capacity is pulled
// in — and kept — ahead of the voluntary idle-return path. The inference
// scheduler's cap still binds: the raise never exceeds capSrv, so
// inference's utilization threshold holds.
func RaiseForCapacityLoss(st *sim.State, busy, want, capSrv int) int {
	trainCap := st.Cluster.TotalGPUs(cluster.PoolTraining)
	floor := 0
	for _, j := range st.Running {
		floor += j.MinWorkers * j.GPUsPerWorker
	}
	if floor <= trainCap {
		return want
	}
	deficit := floor - trainCap
	perServer := cluster.DefaultGPUsPerServer / 2 // memory doubling on T4
	extra := (deficit + perServer - 1) / perServer
	raised := busy + extra
	if raised > capSrv {
		raised = capSrv
	}
	if raised <= want {
		return want
	}
	if st.Obs.Enabled() {
		st.Obs.Emit(obs.Ev(st.Now, obs.KindOrchEmergencyReclaim).WithCause("capacity-loss").WithF(obs.Fields{
			"train_gpus": trainCap, "gang_floor": floor, "deficit": deficit,
			"extra_srv": extra, "want": raised,
		}))
		st.Obs.Add("orch.emergency_reclaims", 1)
	}
	return raised
}

// DemandServers estimates how many additional inference servers the
// training side could fill right now: the pending base demand plus the
// running elastic jobs' unmet flexible demand, beyond the free schedulable
// GPUs, converted at the T4 memory-doubling rate (§2.1: local batches
// split, twice the GPUs per worker). The arbiter's per-shard assessment
// uses it too.
func DemandServers(st *sim.State, includeElastic, loanOnly bool) int {
	freeT, freeL := st.FreeSchedulableGPUs()
	demand := 0
	for _, j := range st.Pending {
		// Only GPU-type-agnostic work whose workers actually fit an
		// inference server can land on loaned capacity (§2.1); loaning
		// for the rest of the backlog would idle the servers.
		if (j.Fungible || j.Elastic || j.Hetero) && place.FitsOnLoan(j) {
			demand += j.BaseGPUs()
			if includeElastic {
				demand += j.FlexRange() * j.GPUsPerWorker
			}
		}
	}
	if includeElastic {
		for _, j := range st.Running {
			if !j.Elastic {
				continue
			}
			// Clamp each job's unmet flexible demand at zero: a job
			// holding more flexible workers than its range (over-
			// provisioned by an earlier epoch or a permissive scheduler)
			// must not subtract from the other jobs' loan demand.
			if unmet := j.FlexRange() - j.FlexibleWorkers(); unmet > 0 {
				demand += unmet * j.GPUsPerWorker
			}
		}
	}
	supply := freeT + freeL
	if loanOnly {
		supply = freeL
	}
	shortfall := demand - supply
	if shortfall <= 0 {
		return 0
	}
	perServer := cluster.DefaultGPUsPerServer / 2 // memory doubling on T4
	return (shortfall + perServer - 1) / perServer
}

// ReturnIdle hands back up to n of st's empty on-loan servers — a
// voluntary trim, so only servers with no workers qualify and nothing is
// preempted. Lowest IDs go first. release moves each picked server out of
// the on-loan pool (a same-cluster Move, or a transfer to the server's home
// shard); shard >= 0 tags the emitted event with the training shard index,
// -1 leaves it untagged.
func ReturnIdle(st *sim.State, n int, release func(sid int), shard int) {
	// Collect candidates first, then release: a release re-indexes pools,
	// so it must not run inside a live pool iteration.
	if n <= 0 {
		return
	}
	picked := make([]int, 0, n)
	st.Cluster.EachPoolServer(cluster.PoolOnLoan, func(s *cluster.Server) bool {
		if s.Used() > 0 {
			return true
		}
		picked = append(picked, s.ID)
		return len(picked) < n
	})
	for _, sid := range picked {
		release(sid)
	}
	if len(picked) > 0 && st.Obs.Enabled() {
		st.Obs.Emit(obs.Ev(st.Now, obs.KindOrchReturn).WithF(tagShard(obs.Fields{
			"servers": picked, "count": len(picked),
		}, shard)))
		st.Obs.Add("orch.returns", 1)
	}
}

// tagShard adds the shard decoration to an event payload when shard >= 0.
func tagShard(f obs.Fields, shard int) obs.Fields {
	if shard >= 0 {
		f["shard"] = shard
	}
	return f
}

// loan moves n inference servers onto the training scheduler's whitelist.
func (o *Orchestrator) loan(st *sim.State, n int) {
	// Same collect-then-move discipline as returnIdle: lowest-ID inference
	// servers are loaned first, as before.
	if n <= 0 {
		return
	}
	picked := make([]int, 0, n)
	st.Cluster.EachPoolServer(cluster.PoolInference, func(s *cluster.Server) bool {
		picked = append(picked, s.ID)
		return len(picked) < n
	})
	var moved []int
	for _, sid := range picked {
		if err := st.Cluster.Move(sid, cluster.PoolOnLoan); err != nil {
			failMove(st, "loan", sid, cluster.PoolOnLoan, err)
		}
		if st.Obs.Enabled() {
			moved = append(moved, sid)
		}
	}
	if len(moved) > 0 {
		st.Obs.Emit(obs.Ev(st.Now, obs.KindOrchLoan).WithF(obs.Fields{
			"servers": moved, "count": len(moved),
		}))
		st.Obs.Add("orch.loans", 1)
	}
}

// moveHome returns the release step of a single-cluster orchestrator: the
// vacated server moves back into the inference pool.
func (o *Orchestrator) moveHome(st *sim.State, op string) func(sid int) {
	return func(sid int) {
		if err := st.Cluster.Move(sid, cluster.PoolInference); err != nil {
			failMove(st, op, sid, cluster.PoolInference, err)
		}
	}
}

// failMove raises a structured pool-membership violation for a failed
// cross-pool server move.
func failMove(st *sim.State, op string, sid int, to cluster.Pool, err error) {
	invariant.Fail(fmt.Sprintf("orchestrator:%s t=%g", op, st.Now), invariant.Violation{
		Rule:     invariant.RulePoolMembership,
		Subject:  fmt.Sprintf("server %d", sid),
		Expected: fmt.Sprintf("move to pool %v to succeed", to),
		Actual:   err.Error(),
	})
}

// Reclaim vacates n of st's on-loan servers chosen by policy: flexible
// server groups are released first (pure scale-in), then the jobs whose
// base workers sit on the selected servers are preempted (re-enqueued in
// less order), and each vacated server is handed to release (a
// same-cluster Move to the inference pool, or a transfer to the server's
// home shard). Preemption and collateral-damage accounting land on st;
// shard >= 0 tags the emitted events with the training shard index, -1
// leaves them untagged.
func Reclaim(st *sim.State, policy reclaim.Policy, less func(a, b *job.Job) bool, n int, release func(sid int), shard int) {
	// PoolServers returns a defensive copy, so the candidate snapshot stays
	// valid while the releases below re-index the pools.
	onLoan := st.Cluster.PoolServers(cluster.PoolOnLoan)
	lookup := func(id int) *job.Job { return st.Running[id] }
	sp := st.Prof.Start("reclaim.plan")
	plan := policy.Plan(onLoan, lookup, n)
	sp.End()
	if len(plan.Servers) == 0 {
		return
	}
	planned := make(map[int]bool, len(plan.Servers))
	demand := 0
	for _, sid := range plan.Servers {
		planned[sid] = true
		demand += st.Cluster.Server(sid).NumGPUs
	}

	if st.Obs.Enabled() {
		cands := make([]int, 0, len(onLoan))
		for _, s := range onLoan {
			cands = append(cands, s.ID)
		}
		picks := make([]obs.Fields, 0, len(plan.Picks))
		for _, p := range plan.Picks {
			picks = append(picks, obs.Fields{
				"server": p.Server, "phase": p.Phase,
				"cost": p.Cost, "reuse": p.Reuse, "damage": p.Damage,
			})
		}
		st.Obs.Emit(obs.Ev(st.Now, obs.KindReclaimPlan).WithF(tagShard(obs.Fields{
			"want": n, "candidates": cands, "servers": plan.Servers,
			"preempt_jobs": plan.PreemptJobs, "scale_in": ScaleInPairs(plan.ScaleIn),
			"flex_only": plan.FlexOnly, "picks": picks,
		}, shard)))
	}

	// The state methods called below tag their lifecycle events with the
	// decider's cause.
	savedCause := st.Cause
	st.Cause = "reclaim"
	asp := st.Prof.Start("reclaim.apply")
	defer func() { asp.End(); st.Cause = savedCause }()

	// Release flexible server groups first: pure scale-in, no preemption.
	// Iterate jobs in sorted order: the map order would otherwise leak into
	// the event stream and break byte-identity across runs.
	scaleJobs := make([]int, 0, len(plan.ScaleIn))
	for id := range plan.ScaleIn {
		scaleJobs = append(scaleJobs, id)
	}
	sort.Ints(scaleJobs)
	for _, id := range scaleJobs {
		j := st.Running[id]
		if j == nil {
			continue
		}
		for _, sid := range plan.ScaleIn[id] {
			st.RemoveFlexibleOnServer(j, sid)
		}
	}

	// Preempt the jobs whose base workers sit on the selected servers. Any
	// of their GPUs on non-selected servers are the collateral damage of
	// §7.3.
	collateral := 0
	for _, id := range plan.PreemptJobs {
		j := st.Running[id]
		if j == nil {
			continue
		}
		for _, w := range j.Workers {
			if !planned[w.Server] {
				collateral += w.GPUs
			}
		}
		st.Preempt(j, less)
	}

	for _, sid := range plan.Servers {
		release(sid)
	}

	st.ReclaimOps++
	st.ReclaimedSrv += len(plan.Servers)
	st.FlexSatisfied += plan.FlexOnly
	st.DemandGPUs += demand
	st.VacatedGPUs += demand + collateral

	if st.Obs.Enabled() {
		st.Obs.Emit(obs.Ev(st.Now, obs.KindOrchReclaim).WithF(tagShard(obs.Fields{
			"servers": plan.Servers, "preempted": len(plan.PreemptJobs),
			"demand_gpus": demand, "collateral_gpus": collateral,
			"flex_only": plan.FlexOnly,
		}, shard)))
		st.Obs.Add("orch.reclaims", 1)
		st.Obs.Observe("orch.collateral_gpus", float64(collateral))
	}
}

// ScaleInPairs flattens a scale-in map into deterministic [job, server]
// pairs sorted by job then server.
func ScaleInPairs(m map[int][]int) [][2]int {
	out := make([][2]int, 0, len(m))
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		srvs := append([]int(nil), m[id]...)
		sort.Ints(srvs)
		for _, sid := range srvs {
			out = append(out, [2]int{id, sid})
		}
	}
	return out
}
