package sim

import (
	"math"
	"testing"

	"lyra/internal/cluster"
	"lyra/internal/invariant"
	"lyra/internal/job"
	"lyra/internal/place"
)

// loanArb is a minimal arbiter: it loans one inference server on its
// first epoch and reclaims it (preempting) on the second.
type loanArb struct{ epochs int }

func (*loanArb) Route(*Shards, *job.Job) int { return 0 }

func (a *loanArb) Epoch(sh *Shards) {
	a.epochs++
	train, inf := sh.Train()[0], sh.Inference()[0]
	switch a.epochs {
	case 1, 3:
		// Epoch 3: inference traffic subsides, loan again so the
		// preempted job can restart and finish.
		if srvs := inf.Cluster.PoolServers(cluster.PoolInference); len(srvs) > 0 {
			sh.Transfer(srvs[0].ID, 0, cluster.PoolOnLoan)
		}
	case 2:
		for _, s := range train.Cluster.PoolServers(cluster.PoolOnLoan) {
			for _, id := range s.Jobs() {
				train.Preempt(train.Running[id], fifoSched{}.Less)
			}
			sh.Transfer(s.ID, sh.Home(s.ID), cluster.PoolInference)
		}
		train.ReclaimOps++
		train.ReclaimedSrv++
		train.DemandGPUs += 8
		train.VacatedGPUs += 10 // 2 GPUs of collateral
	}
}

// loanSched places fungible jobs on on-loan servers.
type loanSched struct{}

func (loanSched) Less(a, b *job.Job) bool { return a.ID < b.ID }
func (loanSched) Schedule(st *State) {
	for _, j := range st.Pending {
		ws, ok := place.Gang(st.Cluster, j, j.MinWorkers, place.PreferOnLoan(false))
		if ok {
			st.Start(j, ws)
		}
	}
	st.CompactPending()
}

func TestEngineOrchestratorPathAndCollateral(t *testing.T) {
	tp := testTopo(0, 2, loanSched{})
	tp.Arbiter, tp.Orchestrate = &loanArb{}, true
	j := job.New(0, 0, job.Generic, 2, 1, 1, 5000)
	j.Fungible = true
	e := New(tp, []*job.Job{j}, 3600, Config{Audit: true})
	res := e.Run()
	if res.Completed != 1 {
		t.Fatalf("completed %d/1 (preempted job should restart after re-loan... it cannot here)", res.Completed)
	}
	if res.Preemptions != 1 {
		t.Errorf("preemptions = %d, want 1", res.Preemptions)
	}
	if res.ReclaimOps != 1 || res.ReclaimedServers != 1 {
		t.Errorf("reclaim accounting: ops=%d servers=%d", res.ReclaimOps, res.ReclaimedServers)
	}
	if math.Abs(res.CollateralDamage-0.25) > 1e-9 {
		t.Errorf("collateral = %v, want 0.25 (2 of 8 GPUs)", res.CollateralDamage)
	}
}

func TestEngineInferenceUtilInOverallUsage(t *testing.T) {
	tp := testTopo(1, 1, fifoSched{})
	tp.InfUtil = []func(int64) float64{func(int64) float64 { return 0.5 }}
	j := job.New(0, 0, job.Generic, 8, 1, 1, 3600)
	res := New(tp, []*job.Job{j}, 3600, Config{Audit: true}).Run()
	// Training: 8/8 busy. Inference: 0.5*8 = 4 busy. Overall = 12/16.
	if got := res.MeanOverallUsage(); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("overall usage = %v, want 0.75", got)
	}
	if got := res.MeanTrainUsage(); got != 1.0 {
		t.Errorf("train usage = %v, want 1.0", got)
	}
}

func TestEngineMaxTimeCutsRunawayJobs(t *testing.T) {
	tp := testTopo(1, 0, fifoSched{})
	long := job.New(0, 0, job.Generic, 8, 1, 1, 1e7) // ~116 days
	res := New(tp, []*job.Job{long}, 3600, Config{MaxTime: 7200, Audit: true}).Run()
	if res.Completed != 0 {
		t.Error("job beyond MaxTime should not complete")
	}
	if long.State != job.Running {
		t.Errorf("job state = %v, want still running at cutoff", long.State)
	}
	if res.JCTSummary().N != 0 {
		t.Error("incomplete jobs must not enter the JCT summary")
	}
}

func TestOnLoanUsageNaNWhenNothingLoaned(t *testing.T) {
	tp := testTopo(1, 0, fifoSched{})
	j := job.New(0, 0, job.Generic, 1, 1, 1, 600)
	res := New(tp, []*job.Job{j}, 3600, Config{Audit: true}).Run()
	if res.MeanOnLoanUsage() != 0 {
		t.Errorf("on-loan usage with no loans = %v, want 0", res.MeanOnLoanUsage())
	}
	for _, v := range res.OnLoanUsage.Values {
		if !math.IsNaN(v) {
			t.Fatal("samples without loans should be NaN placeholders")
		}
	}
}

func TestRemoveFlexibleOnServerTargetsOnlyThatServer(t *testing.T) {
	c := smallCluster(2, 0)
	j := job.New(0, 0, job.Generic, 2, 1, 4, 400)
	j.Elastic = true
	st := newState(c, job.Linear, 63)
	st.enqueue(j, fifoSched{}.Less)
	base, _ := place.Gang(c, j, 1, place.PreferTraining(false))
	st.Start(j, base)
	st.CompactPending()
	// Two flexible workers on server 1 specifically.
	gpu := cluster.V100
	flex := place.UpTo(c, j, 2, place.Options{
		PreferPool: cluster.PoolTraining, Flexible: true, SingleGPUType: true,
		FixedGPU: &gpu, Exclude: map[int]struct{}{base[0].Server: {}},
	})
	if len(flex) != 2 {
		t.Fatalf("flex placement: %v", flex)
	}
	st.AddWorkers(j, flex)
	other := 1 - flex[0].Server // no flexible workers there
	if got := st.RemoveFlexibleOnServer(j, other); got != 0 {
		t.Errorf("removed %d workers from the wrong server", got)
	}
	if got := st.RemoveFlexibleOnServer(j, flex[0].Server); got != 2 {
		t.Errorf("removed %d workers, want 2", got)
	}
	if j.NumWorkers() != 1 {
		t.Errorf("workers after scale-in = %d, want base 1", j.NumWorkers())
	}
}

// TestAuditInferencePoolHoldsHomeServersOnly: the cross-shard audit
// requires every server in an inference shard's inference pool to have
// that shard as its home (the arbiter's free-pool snapshot skips a sort on
// the strength of it). A server released into the wrong inference shard
// keeps ownership and conservation intact, so only this rule can catch it.
func TestAuditInferencePoolHoldsHomeServersOnly(t *testing.T) {
	train, inf := cluster.Carve(cluster.Config{TrainingServers: 1, InferenceServers: 2}, 1, 2)
	e := New(Topology{Train: train, Inf: inf, Scheds: []Scheduler{fifoSched{}}}, nil, 3600, Config{Audit: true})
	e.auditAfter(event{kind: evOrch}) // the carved topology is clean

	// Server 2's home is inference shard 2; release it into shard 1.
	e.sh.Transfer(2, 1, cluster.PoolInference)
	defer func() {
		ie, ok := recover().(*invariant.Error)
		if !ok {
			t.Fatal("wrong-shard release passed the cross-shard audit")
		}
		if v := ie.Violations[0]; v.Rule != invariant.RuleCrossShard || v.Subject != "server 2" {
			t.Fatalf("violation = %+v, want %s on server 2", v, invariant.RuleCrossShard)
		}
	}()
	e.auditAfter(event{kind: evOrch})
}
