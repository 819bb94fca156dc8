package lyra

import (
	"lyra/internal/arbiter"
	"lyra/internal/cluster"
	"lyra/internal/inference"
	"lyra/internal/obs"
	"lyra/internal/orchestrator"
	"lyra/internal/prof"
	"lyra/internal/sim"
)

// newEngine is RunProfiled's engine setup. It carves the configured cluster
// into per-shard indexed clusters over contiguous global ID ranges
// (training shards first, then inference shards, matching the single-
// cluster layout), instantiates one scheduler per training shard and one
// loan targeter per inference shard, and wires the global capacity
// arbitrator. An unsharded config (TrainingShards == 0) runs as the 1+1
// topology; the mapping is local, so Config and its cache keys are
// unchanged.
func newEngine(cfg Config, tr *Trace, rec *obs.Recorder, p *prof.Profiler) *sim.Engine {
	nTrain, nInf := cfg.TrainingShards, cfg.InferenceShards
	if nTrain == 0 {
		nTrain, nInf = 1, 1
	}
	trainCls, infCls := cluster.Carve(cfg.Cluster, nTrain, nInf)

	// One scheduler instance per training shard: each runs over purely
	// local shard state, which is what makes the concurrent epoch safe.
	scheds := make([]sim.Scheduler, nTrain)
	for n := range scheds {
		scheds[n] = schedulerRegistry[cfg.Scheduler](cfg)
	}

	// Per-inference-shard utilization series and loan targeters. Shard 0
	// keeps the base seeds (Seed+13, and Seed+19 for the forecaster), so
	// the 1+1 topology sees the series of the whole inference cluster;
	// higher shards get salted, decorrelated streams.
	targets := make([]orchestrator.LoanTargeter, nInf)
	infUtil := make([]func(int64) float64, nInf)
	for m := range targets {
		util := inference.GenerateUtilization(inference.DefaultUtilizationConfig(cfg.Seed+13+int64(101*m)), tr.Horizon, 300)
		is := inference.NewScheduler(util, infCls[m].NumServers(), cfg.Headroom)
		infUtil[m] = is.UtilizationAt
		var t orchestrator.LoanTargeter = is
		if cfg.ProactiveReclaim {
			t = orchestrator.NewForecaster(is, cfg.Seed+19+int64(101*m))
		}
		targets[m] = t
	}

	// The arbiter always routes; it only brokers loans when loaning is on
	// (Orchestrate gates the epoch).
	arb := arbiter.New(nil, nil, scheds[0].Less)
	if cfg.Loaning {
		arb.Targets = targets
		arb.Policy = reclaimRegistry[cfg.Reclaim](cfg)
		arb.IncludeElasticDemand = cfg.Elastic && cfg.Scheduler != SchedFIFO
		arb.LoanOnlyDemand = cfg.Opportunistic
		arb.EmergencyReclaim = cfg.EmergencyReclaim
	}

	// Post-normalization the config's zero values are literal; the
	// simulator still treats zero as "default", so explicit zeros cross
	// the boundary as the simulator's own negative sentinel.
	preempt := cfg.PreemptOverhead
	if preempt == 0 {
		preempt = -1
	}
	simCfg := sim.Config{
		SchedInterval:   cfg.SchedInterval,
		OrchInterval:    cfg.OrchInterval,
		MaxTime:         cfg.MaxTime,
		PreemptOverhead: preempt,
		Scaling:         cfg.Scaling,
		Audit:           cfg.Audit,
		Obs:             rec,
		Prof:            p,
	}
	tp := sim.Topology{
		Train: trainCls, Inf: infCls, Scheds: scheds, Arbiter: arb,
		Orchestrate: cfg.Loaning, InfUtil: infUtil,
	}
	if cfg.Faults.Enabled() {
		fp := cfg.Faults
		simCfg.Faults = &fp
		// Fault timelines key on global server IDs and the single cluster's
		// rack/zone indexes, so every topology draws the same schedule.
		tp.RefTopo = cluster.New(cfg.Cluster)
	}
	if cfg.RestartBackoff {
		simCfg.BackoffBase = cfg.BackoffBase
		simCfg.BackoffCap = cfg.BackoffCap
	}
	if cfg.QuarantineHysteresis {
		simCfg.HystCrashes = cfg.HystCrashes
		simCfg.HystWindow = cfg.HystWindow
		simCfg.HystHold = cfg.HystHold
	}
	return sim.New(tp, tr.Jobs, tr.Horizon, simCfg)
}
