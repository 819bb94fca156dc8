package main

import (
	"sort"
	"time"

	"lyra/internal/prof"
)

// phaseTrees reads the phase trees a traced run collected. Spans are found
// by name anywhere in a tree, so the same metric reads the unsharded
// engine, the sharded engine and the runner's per-cell trees, whose roots
// differ. A span the run never opened reads as zero.
type phaseTrees []*prof.Report

func (ts phaseTrees) each(name string, fn func(n *prof.Node)) {
	var walk func(ns []*prof.Node)
	walk = func(ns []*prof.Node) {
		for _, n := range ns {
			if n.Name == name {
				fn(n)
			}
			walk(n.Children)
		}
	}
	for _, t := range ts {
		if t != nil {
			walk(t.Phases)
		}
	}
}

// ms is the total wall time of every span with this name.
func (ts phaseTrees) ms(name string) float64 {
	var ns int64
	ts.each(name, func(n *prof.Node) { ns += n.TotalNS })
	return float64(ns) / 1e6
}

// selfMS is the wall time of the named spans not covered by a child span.
func (ts phaseTrees) selfMS(name string) float64 {
	var ns int64
	ts.each(name, func(n *prof.Node) {
		ns += n.TotalNS
		for _, c := range n.Children {
			ns -= c.TotalNS
		}
	})
	return float64(ns) / 1e6
}

func (ts phaseTrees) count(name string) float64 {
	var c int64
	ts.each(name, func(n *prof.Node) { c += n.Count })
	return float64(c)
}

// p99US is the largest per-tree p99 of the named span: over matrix cells,
// the worst cell's.
func (ts phaseTrees) p99US(name string) float64 {
	var p float64
	ts.each(name, func(n *prof.Node) {
		if n.P99NS > p {
			p = n.P99NS
		}
	})
	return p / 1e3
}

// attributedPct is the share of the profiled wall windows covered by
// top-level spans, summed over trees.
func (ts phaseTrees) attributedPct() float64 {
	var roots, window int64
	for _, t := range ts {
		if t == nil {
			continue
		}
		window += t.WindowNS
		for _, n := range t.Phases {
			roots += n.TotalNS
		}
	}
	if window == 0 {
		return 0
	}
	return 100 * float64(roots) / float64(window)
}

// layerMetrics computes the per-layer metrics of one traced run, except
// prof.overhead_ratio, which compares traced with untraced runs.
func layerMetrics(o *outcome) map[string]float64 {
	t := phaseTrees(o.profs)
	m := map[string]float64{
		"sched.mckp_ms":         t.ms("phase2.mckp"),
		"sched.mckp_calls":      t.count("phase2.mckp"),
		"sched.mckp_p99_us":     t.p99US("phase2.mckp"),
		"sched.phase2_ms":       t.ms("phase2"),
		"sched.phase2_apply_ms": t.ms("phase2.apply"),
		"sched.phase1_ms":       t.ms("phase1"),
		"sched.make_room_ms":    t.ms("make-room"),
		"sched.epoch_ms":        t.ms("epoch.sched"),
		"sched.epoch_self_ms":   t.selfMS("epoch.sched"),
		"sched.epoch_p99_us":    t.p99US("epoch.sched"),

		"orch.epoch_ms":       t.ms("epoch.orch"),
		"orch.self_ms":        t.selfMS("epoch.orch"),
		"orch.loan_ms":        t.ms("loan"),
		"orch.loan_calls":     t.count("loan"),
		"orch.return_idle_ms": t.ms("return-idle"),
		"reclaim.plan_ms":     t.ms("reclaim.plan"),
		"reclaim.plan_p99_us": t.p99US("reclaim.plan"),
		"reclaim.apply_ms":    t.ms("reclaim.apply"),

		"fault.crash_ms":   t.ms("crash"),
		"fault.recover_ms": t.ms("recover"),

		"sim.self_ms":    t.selfMS("sim"),
		"sim.arrival_ms": t.ms("arrival"),
		"sim.finish_ms":  t.ms("finish"),
		"sim.metrics_ms": t.ms("metrics"),

		"engine.prepare_ms": t.ms("prepare"),
		"engine.report_ms":  t.ms("report"),
		"trace.gen_ms":      t.ms("trace.gen") + t.ms("trace.materialize"),

		"spec.compile_ms":     float64(o.compile) / 1e6,
		"runner.executed":     float64(o.pool.Executed),
		"runner.hits":         float64(o.pool.Hits),
		"runner.trace_gens":   float64(o.pool.TraceGens),
		"prof.attributed_pct": t.attributedPct(),
	}

	// Report counts: exact, and a perf change must not move them.
	var ops, servers, crashes, recoveries, preempt, scaling, jobs, epochs, skipped float64
	var damage, flex, passes float64
	for i, rep := range o.reports {
		r := rep.Raw
		ops += float64(r.ReclaimOps)
		servers += float64(r.ReclaimedServers)
		damage += rep.CollateralDamage * float64(r.ReclaimOps)
		flex += rep.FlexSatisfiedShare * float64(r.ReclaimedServers)
		crashes += float64(rep.Crashes)
		recoveries += float64(rep.Recoveries)
		preempt += float64(rep.Preemptions)
		scaling += float64(rep.ScalingOps)
		jobs += float64(rep.Total)
		epochs += float64(r.SchedEpochs)
		skipped += float64(r.SkippedSchedEpochs)
		// A sharded epoch offers one scheduler pass per training shard,
		// and the engine counts skips per pass.
		passes += float64(r.SchedEpochs) * float64(max(o.shards[i], 1))
	}
	m["reclaim.ops"] = ops
	m["reclaim.servers"] = servers
	m["reclaim.collateral_damage"] = ratio(damage, ops)
	m["reclaim.flex_satisfied_share"] = ratio(flex, servers)
	m["sched.preemptions"] = preempt
	m["sched.scaling_ops"] = scaling
	m["fault.crashes"] = crashes
	m["fault.recoveries"] = recoveries
	m["sim.epochs"] = epochs
	m["sim.skipped_epochs"] = skipped
	m["sim.skip_ratio"] = ratio(skipped, passes)
	m["trace.jobs"] = jobs

	var walls []float64
	for _, c := range o.cells {
		walls = append(walls, float64(c.Wall)/float64(time.Millisecond))
	}
	sort.Float64s(walls)
	if n := len(walls); n > 0 {
		m["runner.cell_p50_ms"] = median(walls)
		m["runner.cell_max_ms"] = walls[n-1]
	} else {
		m["runner.cell_p50_ms"], m["runner.cell_max_ms"] = 0, 0
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
