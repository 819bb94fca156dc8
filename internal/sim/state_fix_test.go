package sim

import (
	"testing"

	"lyra/internal/job"
)

// startPlaced allocates j's base workers on baseSrv plus one flexible
// worker on each of flexSrvs and starts the job, mirroring what placement
// followed by Start does in a scheduler.
func startPlaced(t *testing.T, st *State, j *job.Job, baseSrv int, flexSrvs ...int) {
	t.Helper()
	var ws []job.Worker
	alloc := func(srv int, flexible bool) {
		s := st.Cluster.Server(srv)
		if err := s.Allocate(j.ID, j.GPUsPerWorker, flexible); err != nil {
			t.Fatal(err)
		}
		ws = append(ws, job.Worker{Server: srv, GPU: s.GPU, GPUs: j.GPUsPerWorker, Flexible: flexible})
	}
	for i := 0; i < j.MinWorkers; i++ {
		alloc(baseSrv, false)
	}
	for _, srv := range flexSrvs {
		alloc(srv, true)
	}
	EnqueueForTest(st, j, fifoSched{}.Less)
	st.Start(j, ws)
	st.CompactPending()
}

func TestRemoveFlexibleWorkersFreesLeastLoadedServerFirst(t *testing.T) {
	c := smallCluster(3, 0)
	st := newState(c, job.Linear, 0)

	// A filler job loads server 1 so the two flexible workers' hosts
	// differ: server 1 ends up with 5 GPUs used, server 2 with 1.
	filler := job.New(9, 0, job.Generic, 4, 1, 1, 1000)
	startPlaced(t, st, filler, 1)

	j := job.New(1, 0, job.Generic, 1, 1, 3, 1000)
	j.Elastic = true
	startPlaced(t, st, j, 0, 1, 2)

	if got := st.RemoveFlexibleWorkers(j, 1); got != 1 {
		t.Fatalf("removed %d workers, want 1", got)
	}
	// The worker on the least-loaded server goes first, freeing server 2
	// entirely for gang placement / voluntary loan returns.
	if got := c.Server(2).Used(); got != 0 {
		t.Errorf("server 2 used = %d, want 0 (least-loaded host freed first)", got)
	}
	if got := c.Server(1).JobGPUs(j.ID); got != 1 {
		t.Errorf("server 1 holds %d GPUs of job 1, want 1 (heavier host kept)", got)
	}

	// Asking for more than remain removes only what exists; the base
	// worker is never touched.
	if got := st.RemoveFlexibleWorkers(j, 5); got != 1 {
		t.Fatalf("removed %d workers, want 1 (only one flexible left)", got)
	}
	if got := c.Server(0).JobGPUs(j.ID); got != 1 {
		t.Errorf("base worker disturbed: server 0 holds %d GPUs", got)
	}
	if len(j.Workers) != 1 || j.Workers[0].Flexible {
		t.Errorf("workers after full scale-in = %+v, want the base worker only", j.Workers)
	}
}

func TestRemoveFlexibleWorkersTieBreaksByServerID(t *testing.T) {
	c := smallCluster(3, 0)
	st := newState(c, job.Linear, 0)
	j := job.New(1, 0, job.Generic, 1, 1, 3, 1000)
	j.Elastic = true
	// Flexible workers listed out of server order on equally loaded
	// servers: the tie must break by server ID, not insertion order.
	startPlaced(t, st, j, 0, 2, 1)

	if got := st.RemoveFlexibleWorkers(j, 1); got != 1 {
		t.Fatalf("removed %d workers, want 1", got)
	}
	if got := c.Server(1).Used(); got != 0 {
		t.Errorf("server 1 used = %d, want 0 (lower ID wins the tie)", got)
	}
	if got := c.Server(2).Used(); got != 1 {
		t.Errorf("server 2 used = %d, want 1", got)
	}
}

func TestRemoveFlexibleWorkersNoOps(t *testing.T) {
	c := smallCluster(1, 0)
	st := newState(c, job.Linear, 0)
	j := job.New(1, 0, job.Generic, 1, 1, 2, 1000)
	j.Elastic = true
	if got := st.RemoveFlexibleWorkers(j, 1); got != 0 {
		t.Errorf("removed %d workers from a pending job, want 0", got)
	}
	startPlaced(t, st, j, 0, 0)
	if got := st.RemoveFlexibleWorkers(j, 0); got != 0 {
		t.Errorf("removed %d workers for n=0, want 0", got)
	}
	if got := st.RemoveFlexibleWorkers(j, -3); got != 0 {
		t.Errorf("removed %d workers for negative n, want 0", got)
	}
	if st.ScalingOps != 0 {
		t.Errorf("no-op removals recorded %d scaling ops", st.ScalingOps)
	}
}

func TestBookkeepingMapsDroppedOnFinish(t *testing.T) {
	tp := testTopo(4, 0, fifoSched{})
	var jobs []*job.Job
	for i := 0; i < 30; i++ {
		jobs = append(jobs, job.New(i, int64(i*97), job.Generic, 1+i%3, 1, 1, float64(100+53*i)))
	}
	e := New(tp, jobs, 86400, Config{Audit: true})
	res := e.Run()
	if res.Completed != 30 {
		t.Fatalf("completed %d/30", res.Completed)
	}
	lastUpdate, versions := e.BookkeepingSizes()
	if lastUpdate != 0 || versions != 0 {
		t.Errorf("per-job bookkeeping survives completion: lastUpdate=%d versions=%d, want 0/0",
			lastUpdate, versions)
	}
}
