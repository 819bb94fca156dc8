package arbiter

import (
	"fmt"
	"testing"

	"lyra/internal/cluster"
	"lyra/internal/inference"
	"lyra/internal/job"
	"lyra/internal/obs"
	"lyra/internal/orchestrator"
	"lyra/internal/place"
	"lyra/internal/reclaim"
	"lyra/internal/sched"
	"lyra/internal/sim"
)

// fixedTarget is a LoanTargeter returning a constant per-shard loan cap.
type fixedTarget int

func (f fixedTarget) TargetOnLoan(int64) int { return int(f) }

func lessByID(a, b *job.Job) bool { return a.ID < b.ID }

// storm builds a 2-training + 2-inference sharded topology (2 servers per
// training shard, 3 per inference shard, contiguous global IDs 0..9), gives
// both training shards a heavy fungible backlog — backlog0 pending 4-GPU
// jobs on shard 0, ten on shard 1 — so they bid in the same arbitration
// epoch, and returns the shards plus the event buffer. Each inference
// shard's loan target is `target`.
func storm(t *testing.T, target, backlog0 int) (*sim.Shards, *Arbiter, *obs.Buffer) {
	t.Helper()
	newC := func(train, inf, firstID, shard int) *cluster.Cluster {
		return cluster.New(cluster.Config{
			TrainingServers: train, InferenceServers: inf,
			TrainingGPU: cluster.V100, InferenceGPU: cluster.T4,
			FirstID: firstID, Shard: shard,
		})
	}
	buf := &obs.Buffer{}
	rec := obs.NewRecorder(buf)
	sh := sim.NewShards(sim.Topology{
		Train:  []*cluster.Cluster{newC(2, 0, 0, 0), newC(2, 0, 2, 1)},
		Inf:    []*cluster.Cluster{newC(0, 3, 4, 2), newC(0, 3, 7, 3)},
		Scheds: []sim.Scheduler{&sched.FIFO{}, &sched.FIFO{}},
	}, sim.Config{Obs: rec})
	// Each shard's free 16 GPUs cover four jobs; every further pending job
	// is one more server (4 loanable GPUs per T4 server) of loan demand:
	// ten jobs want 6 servers, eight want 4.
	for n, st := range sh.Train() {
		backlog := 10
		if n == 0 {
			backlog = backlog0
		}
		for i := 0; i < backlog; i++ {
			j := job.New(100*n+i, 0, job.Generic, 4, 1, 1, 1000)
			j.Fungible = true
			sim.EnqueueForTest(st, j, lessByID)
		}
	}
	a := New(
		[]orchestrator.LoanTargeter{fixedTarget(target), fixedTarget(target)},
		reclaim.Lyra{}, lessByID,
	)
	return sh, a, buf
}

// audit verifies cross-shard GPU conservation and ownership consistency
// after an arbitration epoch: 10 servers and 80 GPUs exist globally, every
// server is attached to exactly the shard the ownership index names, and no
// server appears in two shards.
func auditShards(t *testing.T, sh *sim.Shards) {
	t.Helper()
	gpus, servers := 0, 0
	seen := make(map[int]int)
	for i, st := range sh.States {
		servers += st.Cluster.NumServers()
		st.Cluster.EachServer(func(s *cluster.Server) bool {
			gpus += s.NumGPUs
			if prev, dup := seen[s.ID]; dup {
				t.Fatalf("server %d attached to both shard %d and shard %d", s.ID, prev, i)
			}
			seen[s.ID] = i
			if sh.Owner(s.ID) != i {
				t.Fatalf("server %d attached to shard %d but owner index says %d", s.ID, i, sh.Owner(s.ID))
			}
			return true
		})
		if err := st.Cluster.CheckInvariants(); err != nil {
			t.Fatalf("shard %d cluster invariants: %v", i, err)
		}
	}
	if servers != 10 || gpus != 80 {
		t.Fatalf("conservation violated: %d servers / %d GPUs, want 10 / 80", servers, gpus)
	}
}

func countKind(evs []obs.Event, kind obs.Kind) int {
	n := 0
	for _, ev := range evs {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// TestConflictStormTotalOverlap: shard 0 wants 6 servers against a global
// headroom of 8, so its commit consumes the ENTIRE free pool and leaves 2
// of headroom for shard 1. Shard 1 proposes from the stale snapshot, must
// conflict on all six, retry against the live view, find it empty, and
// converge empty-handed — with conservation intact and Σ on-loan (6)
// under Σ targets (8).
func TestConflictStormTotalOverlap(t *testing.T) {
	sh, a, buf := storm(t, 4, 10)
	a.Epoch(sh)
	auditShards(t, sh)

	if got := sh.Train()[0].Cluster.PoolSize(cluster.PoolOnLoan); got != 6 {
		t.Errorf("shard 0 on-loan = %d, want all 6", got)
	}
	if got := sh.Train()[1].Cluster.PoolSize(cluster.PoolOnLoan); got != 0 {
		t.Errorf("shard 1 on-loan = %d, want 0 after losing every conflict", got)
	}
	evs := buf.Drain()
	if got := countKind(evs, obs.KindArbConflict); got != 6 {
		t.Errorf("arb.conflict events = %d, want 6 (one per stale proposal entry)", got)
	}
	for _, ev := range evs {
		if ev.Kind == obs.KindArbConflict && ev.Cause != "loan-conflict-retry" {
			t.Errorf("arb.conflict cause = %q, want loan-conflict-retry", ev.Cause)
		}
	}
	if got := countKind(evs, obs.KindOrchLoan); got != 1 {
		t.Errorf("orch.loan events = %d, want 1 (only shard 0 granted)", got)
	}
}

// TestConflictStormRetryGrants: partial overlap — shard 0 wants 4 servers
// of a global headroom of 6 and takes servers 4-7; shard 1 gets the
// remaining headroom of 2, conflicts on those four stale entries, and must
// still be granted the remaining servers 8-9.
func TestConflictStormRetryGrants(t *testing.T) {
	sh, a, buf := storm(t, 3, 8)
	a.Epoch(sh)
	auditShards(t, sh)

	if got := sh.Train()[0].Cluster.PoolSize(cluster.PoolOnLoan); got != 4 {
		t.Errorf("shard 0 on-loan = %d, want 4", got)
	}
	if got := sh.Train()[1].Cluster.PoolSize(cluster.PoolOnLoan); got != 2 {
		t.Errorf("shard 1 on-loan = %d, want 2 past the conflicts", got)
	}
	for _, sid := range []int{8, 9} {
		if sh.Owner(sid) != 1 {
			t.Errorf("server %d owner = %d, want shard 1", sid, sh.Owner(sid))
		}
	}
	evs := buf.Drain()
	if got := countKind(evs, obs.KindArbConflict); got != 4 {
		t.Errorf("arb.conflict events = %d, want 4", got)
	}
	if got := countKind(evs, obs.KindOrchLoan); got != 2 {
		t.Errorf("orch.loan events = %d, want one grant per shard", got)
	}
}

// stepTarget is a LoanTargeter whose cap follows a per-epoch schedule:
// epoch k runs at t = 300k.
type stepTarget []int

func (s stepTarget) TargetOnLoan(t int64) int { return s[t/300] }

// TestHeadroomChargedAcrossShards: however many training shards borrow,
// the arbiter charges each shard's net loan change against the global
// headroom. With 2 and 3 shards whose demand always exceeds the targets,
// Σ on-loan must land exactly on Σ targets after every epoch: never above
// it while targets grow (positive headroom, no shard may borrow what an
// earlier shard already took), and never below it when they shrink
// (negative headroom, no shard may reclaim a deficit an earlier shard's
// reclaim already covered).
func TestHeadroomChargedAcrossShards(t *testing.T) {
	steps := stepTarget{2, 4, 1, 0, 3}
	for _, n := range []int{2, 3} {
		t.Run(fmt.Sprintf("%d+%d", n, n), func(t *testing.T) {
			train, inf := cluster.Carve(cluster.Config{TrainingServers: n, InferenceServers: 4 * n}, n, n)
			scheds := make([]sim.Scheduler, n)
			targets := make([]orchestrator.LoanTargeter, n)
			for i := range scheds {
				scheds[i], targets[i] = &sched.FIFO{}, steps
			}
			sh := sim.NewShards(sim.Topology{Train: train, Inf: inf, Scheds: scheds}, sim.Config{})
			// Ten pending 4-GPU fungible jobs on each one-server shard:
			// 8 servers of demand per shard, more than any target.
			for k, st := range sh.Train() {
				for i := 0; i < 10; i++ {
					j := job.New(100*k+i, 0, job.Generic, 4, 1, 1, 1000)
					j.Fungible = true
					sim.EnqueueForTest(st, j, lessByID)
				}
			}
			a := New(targets, reclaim.Lyra{}, lessByID)
			for e, per := range steps {
				for _, st := range sh.States {
					st.Now = float64(300 * e)
				}
				a.Epoch(sh)
				onLoan := 0
				for _, st := range sh.Train() {
					onLoan += st.Cluster.PoolSize(cluster.PoolOnLoan)
				}
				if want := n * per; onLoan != want {
					t.Errorf("epoch %d: Σ on-loan = %d, want Σ targets %d", e, onLoan, want)
				}
			}
		})
	}
}

// TestRouteLeastLoaded: routing is deterministic least-loaded with a
// lowest-ID tie-break, counting both committed and queued GPUs.
func TestRouteLeastLoaded(t *testing.T) {
	sh, a, _ := storm(t, 0, 10)
	// Equal backlogs: the tie must break to shard 0.
	j := job.New(500, 0, job.Generic, 1, 1, 1, 100)
	if got := a.Route(sh, j); got != 0 {
		t.Errorf("tie-break routed to shard %d, want 0", got)
	}
	// Lighten shard 1's queue: it must win the next routing decision.
	st1 := sh.Train()[1]
	st1.Pending = st1.Pending[:2]
	if got := a.Route(sh, j); got != 1 {
		t.Errorf("least-loaded routed to shard %d, want 1", got)
	}
}

// TestReturnRoutesHome: a voluntarily returned server must land in its HOME
// inference shard's pool, not the lender of the moment's.
func TestReturnRoutesHome(t *testing.T) {
	sh, a, _ := storm(t, 3, 10)
	a.Epoch(sh)
	// Shard 0 holds all six loaned servers (4-9); drop its demand so the
	// next epoch returns the idle loans.
	sh.Train()[0].Pending = nil
	sh.Train()[1].Pending = nil
	a.Epoch(sh)
	auditShards(t, sh)
	for sid := 4; sid <= 6; sid++ {
		if sh.Owner(sid) != 2 {
			t.Errorf("server %d owner = %d, want home inference shard 2", sid, sh.Owner(sid))
		}
	}
	for sid := 7; sid <= 9; sid++ {
		if sh.Owner(sid) != 3 {
			t.Errorf("server %d owner = %d, want home inference shard 3", sid, sh.Owner(sid))
		}
	}
}

// TestArbiterEndToEndDiurnal is a full engine run on the 1+1 topology with
// a diurnal inference utilization: loaning and reclaiming happen, the
// auditor holds on every event, and all jobs finish.
func TestArbiterEndToEndDiurnal(t *testing.T) {
	cc := cluster.Config{TrainingServers: 4, InferenceServers: 8}
	train, inf := cluster.Carve(cc, 1, 1)
	util := inference.GenerateUtilization(inference.DefaultUtilizationConfig(3), 86400, 300)
	infSched := inference.NewScheduler(util, 8, 0.02)
	var jobs []*job.Job
	for i := 0; i < 60; i++ {
		j := job.New(i, int64(i*300), job.Generic, 2, 4, 4, float64(2500+i*60))
		j.Fungible = i%2 == 0
		jobs = append(jobs, j)
	}
	s := loanFIFO{}
	a := New([]orchestrator.LoanTargeter{infSched}, reclaim.Lyra{}, s.Less)
	res := sim.New(sim.Topology{
		Train: train, Inf: inf, Scheds: []sim.Scheduler{s}, Arbiter: a, Orchestrate: true,
	}, jobs, 86400, sim.Config{Audit: true}).Run()
	if res.Completed != 60 {
		t.Fatalf("completed %d/60", res.Completed)
	}
	if res.ReclaimOps == 0 {
		t.Error("diurnal pattern should force reclaiming")
	}
	for _, c := range append(train, inf...) {
		if err := c.CheckInvariants(); err != nil {
			t.Error(err)
		}
	}
}

// loanFIFO is a FIFO scheduler that uses on-loan servers for fungible
// jobs.
type loanFIFO struct{}

func (loanFIFO) Less(a, b *job.Job) bool {
	if a.Arrival != b.Arrival {
		return a.Arrival < b.Arrival
	}
	return a.ID < b.ID
}

func (loanFIFO) Schedule(st *sim.State) {
	for _, j := range st.Pending {
		if ws, ok := place.Gang(st.Cluster, j, j.MinWorkers, place.PreferTraining(j.Fungible)); ok {
			st.Start(j, ws)
		}
	}
	st.CompactPending()
}
