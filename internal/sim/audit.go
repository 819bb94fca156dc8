package sim

import (
	"fmt"

	"lyra/internal/cluster"

	"lyra/internal/invariant"
	"lyra/internal/job"
)

// AuditView packages the scheduler-visible state for the invariant auditor
// (internal/invariant). The engine, the orchestrator and the testbed all
// audit through this same view, so one rule set covers every substrate.
func (st *State) AuditView(ctx string, less func(a, b *job.Job) bool) invariant.View {
	return invariant.View{
		Context: ctx,
		Now:     st.Now,
		Cluster: st.Cluster,
		Pending: st.Pending,
		Running: st.Running,
		Held:    st.HeldJobs(),
		Less:    less,
	}
}

// auditAfter runs the invariant suite after one applied event over every
// shard state, plus the recount oracle for the dirty-set layer (the
// maintained ordered views and the flexible-GPU counter must match a
// from-scratch recount), plus the cross-shard rules: the global GPU and
// server totals must match the per-shard sums (no GPU created or lost
// across a loan in flight), every server must be attached to exactly the
// shard the ownership index says, and every server in an inference shard's
// inference pool must have that shard as its home. A violation panics with
// the structured expected-vs-actual report: the simulation state is
// corrupt and no result derived from it can be trusted, so failing loudly
// at the offending event is the only safe behavior.
func (e *Engine) auditAfter(ev event) {
	// Contexts are only formatted on a violation: the audit runs after
	// every event.
	shardCtx := func(i int) string {
		return fmt.Sprintf("sim:shard%d:%v t=%g job=%d", i, ev.kind, e.now, ev.jobID)
	}
	for i, st := range e.sh.States {
		if err := e.audit.Audit(st.AuditView("", e.sh.Less)); err != nil {
			err.(*invariant.Error).Context = shardCtx(i)
			panic(err)
		}
		if err := st.AuditIncremental(); err != nil {
			panic(fmt.Errorf("%s: incremental bookkeeping diverged: %w", shardCtx(i), err))
		}
	}
	crossCtx := func() string { return fmt.Sprintf("sim:shards:%v t=%g", ev.kind, e.now) }
	gpus, servers := 0, 0
	for i, st := range e.sh.States {
		gpus += totalClusterGPUs(st.Cluster)
		servers += st.Cluster.NumServers()
		st.Cluster.EachServer(func(s *cluster.Server) bool {
			if e.sh.Owner(s.ID) != i {
				invariant.Fail(crossCtx(), invariant.Violation{
					Rule:     invariant.RuleCrossShard,
					Subject:  fmt.Sprintf("server %d", s.ID),
					Expected: fmt.Sprintf("attached to its owner shard %d", e.sh.Owner(s.ID)),
					Actual:   fmt.Sprintf("attached to shard %d", i),
				})
			}
			return true
		})
	}
	// The arbiter's free-pool snapshot relies on this: inference shards
	// hold ascending, contiguous ID ranges, so concatenating their
	// inference pools is already in global ID order.
	for m, st := range e.sh.Inference() {
		shard := e.sh.NumTrain + m
		st.Cluster.EachPoolServer(cluster.PoolInference, func(s *cluster.Server) bool {
			if home := e.sh.Home(s.ID); home != shard {
				invariant.Fail(crossCtx(), invariant.Violation{
					Rule:     invariant.RuleCrossShard,
					Subject:  fmt.Sprintf("server %d", s.ID),
					Expected: fmt.Sprintf("in the inference pool of its home shard %d", home),
					Actual:   fmt.Sprintf("in the inference pool of shard %d", shard),
				})
			}
			return true
		})
	}
	if gpus != e.totalGPUs || servers != e.totalServers {
		invariant.Fail(crossCtx(), invariant.Violation{
			Rule:     invariant.RuleCrossShard,
			Subject:  "sharded topology",
			Expected: fmt.Sprintf("%d GPUs on %d servers across all shards", e.totalGPUs, e.totalServers),
			Actual:   fmt.Sprintf("%d GPUs on %d servers", gpus, servers),
		})
	}
}

// BookkeepingSizes reports the sizes of the engine's and the training
// shard states' internal per-job maps — test hooks for asserting that
// completed jobs do not accumulate dead entries over long traces.
func (e *Engine) BookkeepingSizes() (lastUpdate, versions int) {
	for _, st := range e.sh.Train() {
		lastUpdate += len(st.lastUpdate)
	}
	return lastUpdate, len(e.version)
}
