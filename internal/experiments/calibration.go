package experiments

import (
	"fmt"
	"math"

	"lyra"
	"lyra/internal/arbiter"
	"lyra/internal/cluster"
	"lyra/internal/inference"
	"lyra/internal/metrics"
	"lyra/internal/orchestrator"
	"lyra/internal/reclaim"
	"lyra/internal/runner"
	"lyra/internal/sched"
	"lyra/internal/sim"
	"lyra/internal/trace"
)

// calibrationSim is the simulator leg's memoized result: the aggregate
// statistics the comparison consumes.
type calibrationSim struct {
	Queue     metrics.Summary
	JCT       metrics.Summary
	Completed int
}

// Calibration reproduces the simulator-fidelity methodology of §7.2: the
// same small trace is executed by the discrete-event simulator and by the
// prototype runtime under the same scheduler configuration, and the
// aggregate queuing/JCT statistics are compared. The paper reports 6.2% and
// 3.4% differences in average and 95%ile JCT and 3.5% / 4.4% in queuing,
// attributing them to worker placement/removal overheads the simulator
// does not capture — exactly the launch latency the prototype's containers
// pay here. The simulator leg drives sim.New directly (no estimate
// annotation, testbed intervals), so it goes through the pool's generic Do
// with an explicit content key instead of a Spec.
func Calibration(p Params) []*Table {
	pool := p.pool()

	simKey, err := runner.KeyOf("calibration-sim", struct {
		Seed  int64
		Audit bool
	}{p.Seed, p.Audit})
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	simV, err := pool.Do(simKey, func() (any, error) {
		tr := trace.GenerateTestbed(p.Seed, 60)
		simSched := sched.NewLyra()
		train, inf := cluster.Carve(cluster.TestbedConfig(), 1, 1)
		util := inference.GenerateUtilization(inference.DefaultUtilizationConfig(p.Seed+13), tr.Horizon, 300)
		infSched := inference.NewScheduler(util, cluster.TestbedConfig().InferenceServers, 0.02)
		arb := arbiter.New([]orchestrator.LoanTargeter{infSched}, reclaim.Lyra{}, simSched.Less)
		res := sim.New(sim.Topology{
			Train: train, Inf: inf, Scheds: []sim.Scheduler{simSched},
			Arbiter: arb, Orchestrate: true,
		}, tr.Clone().Jobs, tr.Horizon, sim.Config{
			SchedInterval: 30, OrchInterval: 300, Audit: p.Audit,
		}).Run()
		return calibrationSim{
			Queue:     res.QueuingSummary(),
			JCT:       res.JCTSummary(),
			Completed: res.Completed,
		}, nil
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	simRes := simV.(calibrationSim)

	// Prototype leg: identical intervals and utilization timebase; the
	// container launch latency is the real-world effect under study.
	tbRes, err := pool.Testbed(runner.TestbedSpec{
		Name:          "calibration/testbed",
		Jobs:          60,
		Seed:          p.Seed,
		Scheduler:     lyra.SchedLyra,
		Elastic:       true,
		Loaning:       true,
		Speedup:       8000,
		SchedInterval: 30,
		OrchInterval:  300,
		UtilCompress:  1,
		Audit:         p.Audit,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}

	t := &Table{
		ID:     "calibration",
		Title:  "Simulator vs prototype runtime on the same trace (fidelity check, §7.2)",
		Header: []string{"metric", "simulator", "testbed", "abs_delta", "rel_diff"},
	}
	row := func(name string, s, tb float64) {
		diff := 0.0
		if s != 0 {
			diff = math.Abs(tb-s) / s
		}
		t.Rows = append(t.Rows, []string{name, fmtS(s), fmtS(tb), fmtS(math.Abs(tb - s)), fmtPct(diff)})
	}
	row("queuing mean (s)", simRes.Queue.Mean, tbRes.Queue.Mean)
	row("queuing p95 (s)", simRes.Queue.P95, tbRes.Queue.P95)
	row("JCT mean (s)", simRes.JCT.Mean, tbRes.JCT.Mean)
	row("JCT p95 (s)", simRes.JCT.P95, tbRes.JCT.P95)
	t.Rows = append(t.Rows, []string{"jobs completed",
		fmt.Sprintf("%d", simRes.Completed), fmt.Sprintf("%d", tbRes.Completed), "-", "-"})
	t.Notes = append(t.Notes,
		"paper: simulator within 6.2%/3.4% of testbed JCT and 3.5%/4.4% of queuing; residual gap here is the container launch latency the simulator does not model")
	return []*Table{t}
}
