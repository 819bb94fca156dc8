// Package lyra is a from-scratch reproduction of "Lyra: Elastic Scheduling
// for Deep Learning Clusters" (EuroSys '23). It schedules deep-learning
// training jobs over a training cluster that can borrow idle inference
// servers (capacity loaning, §4) and grow/shrink elastic jobs to soak up
// the transient capacity (elastic scaling, §5).
//
// The package is organized as the paper's system is:
//
//   - this root package: configuration, scheme registry, and the Run entry
//     point that replays a trace through the discrete-event simulator;
//   - internal/sched, internal/alloc, internal/place, internal/reclaim,
//     internal/orchestrator: Lyra's scheduler and every compared scheme;
//   - internal/sim: the discrete-event cluster simulator;
//   - internal/trace, internal/inference, internal/predict: the synthetic
//     substrates standing in for the paper's production traces and LSTM
//     usage predictor;
//   - internal/testbed: a YARN-lite prototype runtime for the testbed-style
//     experiments (§7.5);
//   - internal/experiments: regeneration of every table and figure.
//
// A minimal run:
//
//	tr := lyra.GenerateTrace(lyra.TraceConfig{Seed: 1, Days: 2, TrainingGPUs: 256, LoadFactor: 0.9})
//	rep, err := lyra.Run(lyra.DefaultConfig(), tr)
//
// Whole evaluation scenarios — cluster shape, trace synthesis, workload
// mix, fault plan, a scheme matrix and SLO assertions — are declared as
// versioned YAML/JSON ScenarioSpec files (LoadSpec, CompileSpec) and run as
// a matrix by cmd/lyra-matrix; see testdata/scenarios/.
package lyra

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"lyra/internal/alloc"
	"lyra/internal/cluster"
	"lyra/internal/fault"
	"lyra/internal/invariant"
	"lyra/internal/job"
	"lyra/internal/metrics"
	"lyra/internal/obs"
	"lyra/internal/predict"
	"lyra/internal/prof"
	"lyra/internal/reclaim"
	"lyra/internal/sched"
	"lyra/internal/sim"
	"lyra/internal/trace"
)

// Re-exported configuration types, so that typical users never import the
// internal packages directly.
type (
	// ClusterConfig sizes the training and inference clusters.
	ClusterConfig = cluster.Config
	// TraceConfig parameterizes synthetic trace generation.
	TraceConfig = trace.Config
	// Trace is a job submission trace.
	Trace = trace.Trace
	// ScalingModel is the job throughput model.
	ScalingModel = job.ScalingModel
	// Summary is the statistics bundle reported per metric.
	Summary = metrics.Summary
	// FaultPlan is the deterministic fault-injection plan (internal/fault):
	// seeded server crashes with timed recoveries, straggler slowdowns, and
	// (testbed) container-launch/RPC faults. The zero plan injects nothing.
	FaultPlan = fault.Plan
)

// GPUType identifies a GPU model for ClusterConfig's TrainingGPU and
// InferenceGPU fields. Speeds are normalized to V100 = 1.0.
type GPUType = cluster.GPUType

// Supported GPU generations. The ClusterConfig zero value keeps the paper's
// pairing (V100 training, T4 inference); A100 models a third, faster
// generation for mixed-generation topologies.
const (
	V100 GPUType = cluster.V100
	T4   GPUType = cluster.T4
	A100 GPUType = cluster.A100
)

// ParseGPUType decodes a GPU model name ("V100", "T4", "A100",
// case-insensitive) as written in scenario specs and CLI flags.
func ParseGPUType(s string) (GPUType, error) { return cluster.ParseGPUType(s) }

// ParseFaultPlan decodes the CLI fault spec syntax, e.g.
// "mtbf=21600,mttr=600,straggler=0.1" (see internal/fault.ParsePlan).
func ParseFaultPlan(spec string) (FaultPlan, error) { return fault.ParsePlan(spec) }

// GenerateTrace synthesizes a production-like trace (see internal/trace).
func GenerateTrace(cfg TraceConfig) *Trace { return trace.Generate(cfg) }

// DefaultTraceConfig is the paper-scale 15-day trace configuration.
func DefaultTraceConfig(seed int64) TraceConfig { return trace.Default(seed) }

// SchedulerKind selects the job scheduler.
type SchedulerKind string

// Available job schedulers (§7.1, "Schemes compared").
const (
	SchedFIFO    SchedulerKind = "fifo"    // Baseline
	SchedLyra    SchedulerKind = "lyra"    // two-phase SJF + MCKP (§5)
	SchedGandiva SchedulerKind = "gandiva" // opportunistic scaling
	SchedAFS     SchedulerKind = "afs"     // greedy marginal-gain
	SchedPollux  SchedulerKind = "pollux"  // goodput GA
)

// ReclaimKind selects the server reclaiming policy (§4, §7.3).
type ReclaimKind string

// Available reclaiming policies.
const (
	ReclaimLyra    ReclaimKind = "lyra"
	ReclaimRandom  ReclaimKind = "random"
	ReclaimSCF     ReclaimKind = "scf"
	ReclaimOptimal ReclaimKind = "optimal"
)

// schedulerRegistry is the single source of truth for the scheduler
// schemes: Validate consults it to fail fast on unknown kinds, and Run
// constructs the scheduler through it. The Config passed to a constructor
// is always normalized.
var schedulerRegistry = map[SchedulerKind]func(Config) sim.Scheduler{
	SchedFIFO: func(cfg Config) sim.Scheduler { return &sched.FIFO{Opportunistic: cfg.Opportunistic} },
	SchedLyra: func(cfg Config) sim.Scheduler {
		return &sched.Lyra{
			Elastic:        cfg.Elastic,
			NaivePlacement: cfg.NaivePlacement,
			Tuned:          cfg.Tuned,
			Opportunistic:  cfg.Opportunistic,
			InfoAgnostic:   cfg.InfoAgnostic,
			Tuning:         alloc.Tuning{StabilityBonus: cfg.StabilityBonus, MaxItems: cfg.Phase2MaxItems},
		}
	},
	SchedGandiva: func(Config) sim.Scheduler { return &sched.Gandiva{} },
	SchedAFS:     func(Config) sim.Scheduler { return &sched.AFS{} },
	SchedPollux:  func(cfg Config) sim.Scheduler { return sched.NewPollux(cfg.Seed + 5) },
}

// reclaimRegistry is the counterpart registry for the reclaiming policies.
var reclaimRegistry = map[ReclaimKind]func(Config) reclaim.Policy{
	ReclaimLyra:   func(Config) reclaim.Policy { return reclaim.Lyra{} },
	ReclaimRandom: func(cfg Config) reclaim.Policy { return reclaim.Random{Rng: rand.New(rand.NewSource(cfg.Seed + 31))} },
	ReclaimSCF:    func(Config) reclaim.Policy { return reclaim.SCF{} },
	ReclaimOptimal: func(Config) reclaim.Policy {
		return reclaim.Optimal{}
	},
}

// Schedulers lists the registered scheduler kinds in sorted order.
func Schedulers() []SchedulerKind {
	out := make([]SchedulerKind, 0, len(schedulerRegistry))
	for k := range schedulerRegistry {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Reclaims lists the registered reclaiming policies in sorted order.
func Reclaims() []ReclaimKind {
	out := make([]ReclaimKind, 0, len(reclaimRegistry))
	for k := range reclaimRegistry {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Valid reports whether k names a registered scheduler.
func (k SchedulerKind) Valid() bool { _, ok := schedulerRegistry[k]; return ok }

// Valid reports whether k names a registered reclaiming policy.
func (k ReclaimKind) Valid() bool { _, ok := reclaimRegistry[k]; return ok }

func kindList[K ~string](ks []K) string {
	parts := make([]string, len(ks))
	for i, k := range ks {
		parts[i] = string(k)
	}
	return strings.Join(parts, ", ")
}

// Zero marks a Config field as explicitly zero in the fields that treat the
// Go zero value as "use the default": Headroom: lyra.Zero loans every
// inference server (no headroom), PreemptOverhead: lyra.Zero makes
// preemption free. Normalize resolves the sentinel to a literal 0.
const Zero = -1

// Config assembles one simulated scheme.
//
// Several fields treat their zero value as "use the paper's default"; the
// defaults are applied by Normalize (Run normalizes automatically). Fields
// whose default is non-zero accept the Zero sentinel to request a literal
// zero — each field's comment says which rule it follows.
type Config struct {
	Cluster ClusterConfig
	// Scheduler picks the job scheduler; "" defaults to SchedLyra. Unknown
	// kinds are rejected by Validate with the registered list.
	Scheduler SchedulerKind

	// Elastic enables elastic scaling (phase 2) for the Lyra scheduler.
	Elastic bool
	// Loaning enables capacity loaning via the orchestrator.
	Loaning bool
	// Reclaim picks the reclaiming policy when Loaning is on; "" defaults
	// to ReclaimLyra. Normalize clears it when Loaning is off (the policy
	// is never consulted then), so semantically equal configs compare and
	// hash equal.
	Reclaim ReclaimKind
	// Opportunistic switches to the Opportunistic comparison scheme:
	// fungible jobs queue to the inference cluster only (§7.1).
	Opportunistic bool
	// Tuned attaches the hyperparameter-tuning job agent to elastic jobs
	// (Lyra+TunedJobs, §7.4).
	Tuned bool
	// NaivePlacement disables the elastic placement grouping (Table 6).
	NaivePlacement bool
	// ProactiveReclaim drives loan targets from the LSTM usage predictor
	// (§6): reclaiming starts before a predicted traffic rise instead of
	// reacting to it, trimming trailing-edge preemptions.
	ProactiveReclaim bool
	// InfoAgnostic replaces the SJF queue order with least-attained-
	// service (the information-agnostic scheduling the paper leaves as
	// future work in §10): no running-time estimates are consulted.
	InfoAgnostic bool

	// Scaling is the throughput model. The all-zero model defaults to
	// linear scaling with a 0.7 heterogeneous penalty (the paper's default
	// operating point); in a partially-set model, HeteroPenalty 0 defaults
	// to 1 (no penalty). A literal zero penalty is not expressible — it
	// would mean heterogeneous jobs make no progress at all.
	Scaling ScalingModel

	// FracWrongEstimate and MaxEstimateError inject running-time
	// prediction error (Table 9). Zero means no injected error (the
	// default IS zero; no sentinel needed).
	FracWrongEstimate float64
	MaxEstimateError  float64

	// Headroom is the never-loaned fraction of the inference cluster.
	// Zero value defaults to 0.02 (§7.1); Headroom: Zero loans the whole
	// inference cluster.
	Headroom float64

	// SchedInterval and OrchInterval override the simulator epochs. Zero
	// value defaults to 60 s and 300 s; a literal zero interval is
	// meaningless and rejected by Validate (the Zero sentinel too).
	SchedInterval int64
	OrchInterval  int64
	// MaxTime hard-caps simulated seconds; the run stops there even with
	// jobs outstanding. 0 means the simulator default (4x the trace
	// horizon). The scale benchmarks use it to time a fixed number of
	// scheduling epochs on clusters too large to drain.
	MaxTime float64
	// PreemptOverhead is the fixed restart cost of a preempted job. Zero
	// value defaults to the measured 63 s; PreemptOverhead: Zero makes
	// preemption free.
	PreemptOverhead float64

	// StabilityBonus overrides the MCKP current-allocation damping factor
	// (§5.2 allocator). Zero value defaults to 1.08; 1 disables the
	// damping (the ablations sweep this — per-config, so concurrent runs
	// stay independent).
	StabilityBonus float64
	// Phase2MaxItems overrides the MCKP items generated per elastic job.
	// Zero value defaults to 8; at most alloc.MaxPhase2Items (32,766), so
	// every job's group fits the knapsack's pick index.
	Phase2MaxItems int

	// Audit enables the invariant audit layer (internal/invariant): after
	// every simulator event the full conservation/legality suite —
	// GPU/worker conservation, lifecycle legality, queue order, progress
	// bounds, pool membership — is checked, and the run panics with a
	// structured expected-vs-actual report on the first violation. All
	// tests run with Audit on; it defaults to off so benchmarks and the
	// headline experiment harness keep the unchanged hot path. Results
	// are bit-identical either way (auditing only reads state).
	Audit bool

	// Events enables the structured event recorder (internal/obs): the
	// run emits the full decision trace — job lifecycle with causes,
	// orchestrator loan/reclaim instructions, scheduler epoch summaries,
	// reclaim knapsack picks, counter samples — as deterministic JSONL in
	// Report.Events. Events carry simulated time only, so two runs of the
	// same config and trace produce byte-identical streams. Off by
	// default; the disabled cost is a nil check per emission site, the
	// same discipline as Audit. Results are bit-identical either way
	// (recording only reads state).
	Events bool

	// Faults is the deterministic fault-injection plan. The zero plan (the
	// default) injects nothing and costs one check at engine start; an
	// enabled plan adds seeded server crashes/recoveries to the event queue
	// and stamps straggler slowdowns, all pre-generated from Faults.Seed so
	// runs stay reproducible and memoizable. Normalize applies the plan's
	// own defaults (e.g. MTTR 600 s when crashes are on); Validate rejects
	// out-of-domain rates.
	Faults FaultPlan

	// Degraded-mode policies (DESIGN.md §13), each independently
	// toggleable and off by default — off is bit-identical to the
	// pre-policy system. All new fields are omitted from the canonical
	// JSON form when zero, so runner cache keys of pre-existing specs are
	// unchanged.
	//
	// RestartBackoff holds a crash-preempted job out of the pending queue
	// for min(BackoffBase·2^N, BackoffCap) seconds (N = its prior crash
	// count), bounding the concurrent-restart storm after a correlated
	// outage. BackoffBase/BackoffCap zero default to 60/1800 when the
	// policy is on; Normalize zeroes them when it is off.
	RestartBackoff bool    `json:",omitempty"`
	BackoffBase    float64 `json:",omitempty"`
	BackoffCap     float64 `json:",omitempty"`
	// QuarantineHysteresis delays the recovery of a server that crashed
	// HystCrashes times within the trailing HystWindow seconds by an
	// escalating hold-down starting at HystHold seconds. Zero knobs
	// default to 3 crashes / 3600 s window / 900 s hold when the policy
	// is on; Normalize zeroes them when it is off.
	QuarantineHysteresis bool    `json:",omitempty"`
	HystCrashes          int     `json:",omitempty"`
	HystWindow           float64 `json:",omitempty"`
	HystHold             float64 `json:",omitempty"`
	// EmergencyReclaim raises the orchestrator's loan target when healthy
	// training capacity falls below the running jobs' gang floor, pulling
	// loaned capacity in ahead of the normal idle-return path (still
	// capped by the inference scheduler's target). Only meaningful with
	// Loaning; Normalize clears it otherwise.
	EmergencyReclaim bool `json:",omitempty"`

	// TrainingShards / InferenceShards partition the cluster into a
	// sharded topology (DESIGN.md §14): each shard is its own indexed
	// cluster with a scheduler instance over purely local state, and the
	// global capacity arbitrator (internal/arbiter) routes arriving jobs
	// and brokers cross-shard loans. Zero/zero (the default, omitted from
	// runner cache keys) runs the classic single-cluster engine; a
	// 1-training+1-inference topology reproduces its event stream
	// byte-for-byte through the sharded machinery. Shard scheduler epochs
	// execute concurrently, merged deterministically in shard ID order.
	TrainingShards  int `json:",omitempty"`
	InferenceShards int `json:",omitempty"`

	Seed int64

	// DefaultsApplied records that Normalize has run: every "zero means
	// default" rule above has been resolved, so a zero field now means a
	// literal zero. Run normalizes un-normalized configs automatically;
	// construct a config with DefaultsApplied set only if every field is
	// meant literally.
	DefaultsApplied bool
}

// Normalize returns the config with every default applied and the Zero
// sentinels resolved to literal zeros, marked DefaultsApplied. It is
// idempotent, and Run applies it automatically; call it directly when two
// configs must be compared or hashed canonically (the experiment runner
// does, so that semantically equal configs share one cache entry).
func (c Config) Normalize() Config {
	if !c.DefaultsApplied {
		if c.Scheduler == "" {
			c.Scheduler = SchedLyra
		}
		if c.Scaling == (ScalingModel{}) {
			c.Scaling = ScalingModel{HeteroPenalty: 0.7}
		}
		if c.Scaling.HeteroPenalty == 0 {
			c.Scaling.HeteroPenalty = 1
		}
		if c.Headroom == 0 {
			c.Headroom = 0.02
		}
		if c.SchedInterval == 0 {
			c.SchedInterval = 60
		}
		if c.OrchInterval == 0 {
			c.OrchInterval = 300
		}
		if c.PreemptOverhead == 0 {
			c.PreemptOverhead = 63
		}
		if c.StabilityBonus == 0 {
			c.StabilityBonus = 1.08
		}
		if c.Phase2MaxItems == 0 {
			c.Phase2MaxItems = 8
		}
		if c.Loaning && c.Reclaim == "" {
			c.Reclaim = ReclaimLyra
		}
	}
	// Sentinels resolve on every pass so a hand-built DefaultsApplied
	// config may still use them.
	if c.Headroom == Zero {
		c.Headroom = 0
	}
	if c.PreemptOverhead == Zero {
		c.PreemptOverhead = 0
	}
	if !c.Loaning {
		c.Reclaim = ""
	}
	// Degraded-mode knobs canonicalize on every pass (idempotent, like the
	// fault plan): an off policy zeroes its knobs so semantically equal
	// configs hash equal, an on policy fills its defaults.
	if c.RestartBackoff {
		if c.BackoffBase == 0 {
			c.BackoffBase = 60
		}
		if c.BackoffCap == 0 {
			c.BackoffCap = 1800
		}
	} else {
		c.BackoffBase, c.BackoffCap = 0, 0
	}
	if c.QuarantineHysteresis {
		if c.HystCrashes == 0 {
			c.HystCrashes = 3
		}
		if c.HystWindow == 0 {
			c.HystWindow = 3600
		}
		if c.HystHold == 0 {
			c.HystHold = 900
		}
	} else {
		c.HystCrashes, c.HystWindow, c.HystHold = 0, 0, 0
	}
	if !c.Loaning {
		c.EmergencyReclaim = false
	}
	c.Faults = c.Faults.Normalize()
	c.DefaultsApplied = true
	return c
}

// Validate reports the first problem that would otherwise surface as a
// panic or a silently wrong run deep inside Run: unknown scheme kinds (with
// the registered alternatives listed), out-of-range fractions, and
// non-positive intervals. NaN and ±Inf are rejected in every float field,
// whatever its default. It validates the normalized form, so zero-valued
// fields are fine; the fault plan alone is validated raw, because
// normalizing canonicalizes an out-of-domain disabled plan away (see
// fault.Plan.Validate). Every error names the offending field and the
// rejected value, so spec-file compilation (CompileSpec) can point at the
// exact field of the exact scheme entry that produced it.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"FracWrongEstimate", c.FracWrongEstimate}, {"MaxEstimateError", c.MaxEstimateError},
		{"Headroom", c.Headroom}, {"MaxTime", c.MaxTime},
		{"PreemptOverhead", c.PreemptOverhead}, {"StabilityBonus", c.StabilityBonus},
		{"Scaling.PerWorkerLoss", c.Scaling.PerWorkerLoss},
		{"Scaling.HeteroPenalty", c.Scaling.HeteroPenalty},
		{"Scaling.TunedGain", c.Scaling.TunedGain},
		{"BackoffBase", c.BackoffBase}, {"BackoffCap", c.BackoffCap},
		{"HystWindow", c.HystWindow}, {"HystHold", c.HystHold},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("lyra: %s %v not finite", f.name, f.v)
		}
	}
	if err := c.Faults.Validate(); err != nil {
		return fmt.Errorf("lyra: Faults: %w", err)
	}
	n := c.Normalize()
	if !n.Scheduler.Valid() {
		return fmt.Errorf("lyra: Scheduler: unknown scheduler %q (valid: %s)", n.Scheduler, kindList(Schedulers()))
	}
	if n.Loaning && !n.Reclaim.Valid() {
		return fmt.Errorf("lyra: Reclaim: unknown reclaim policy %q (valid: %s)", n.Reclaim, kindList(Reclaims()))
	}
	if c.Cluster.TrainingServers < 0 || c.Cluster.InferenceServers < 0 {
		return fmt.Errorf("lyra: Cluster: negative cluster size %+v", c.Cluster)
	}
	if n.SchedInterval <= 0 {
		return fmt.Errorf("lyra: SchedInterval %d must be positive (zero value selects the 60 s default; an explicit zero interval is meaningless)", n.SchedInterval)
	}
	if n.OrchInterval <= 0 {
		return fmt.Errorf("lyra: OrchInterval %d must be positive (zero value selects the 300 s default)", n.OrchInterval)
	}
	if n.MaxTime < 0 {
		return fmt.Errorf("lyra: MaxTime %v negative (0 means the simulator default)", n.MaxTime)
	}
	if n.Headroom < 0 || n.Headroom > 1 {
		return fmt.Errorf("lyra: Headroom %v outside [0, 1] (use lyra.Zero for an explicit zero)", n.Headroom)
	}
	if n.PreemptOverhead < 0 {
		return fmt.Errorf("lyra: PreemptOverhead %v negative (use lyra.Zero for an explicit zero)", n.PreemptOverhead)
	}
	if n.FracWrongEstimate < 0 || n.FracWrongEstimate > 1 {
		return fmt.Errorf("lyra: FracWrongEstimate %v outside [0, 1]", n.FracWrongEstimate)
	}
	if n.MaxEstimateError < 0 {
		return fmt.Errorf("lyra: MaxEstimateError %v negative", n.MaxEstimateError)
	}
	if n.Scaling.HeteroPenalty < 0 || n.Scaling.HeteroPenalty > 1 {
		return fmt.Errorf("lyra: Scaling.HeteroPenalty %v outside [0, 1]", n.Scaling.HeteroPenalty)
	}
	if n.Scaling.PerWorkerLoss < 0 || n.Scaling.PerWorkerLoss >= 1 {
		return fmt.Errorf("lyra: Scaling.PerWorkerLoss %v outside [0, 1)", n.Scaling.PerWorkerLoss)
	}
	if n.StabilityBonus <= 0 {
		return fmt.Errorf("lyra: StabilityBonus %v must be positive (1 disables the damping)", n.StabilityBonus)
	}
	if n.Phase2MaxItems < 1 || n.Phase2MaxItems > alloc.MaxPhase2Items {
		return fmt.Errorf("lyra: Phase2MaxItems %d outside [1, %d] (a job's knapsack group holds Phase2MaxItems+1 items at most)", n.Phase2MaxItems, alloc.MaxPhase2Items)
	}
	if n.RestartBackoff {
		if n.BackoffBase <= 0 {
			return fmt.Errorf("lyra: BackoffBase %v must be positive with RestartBackoff on (zero selects the 60 s default)", n.BackoffBase)
		}
		if n.BackoffCap < n.BackoffBase {
			return fmt.Errorf("lyra: BackoffCap %v must be at least BackoffBase (%v)", n.BackoffCap, n.BackoffBase)
		}
	}
	if n.QuarantineHysteresis {
		if n.HystCrashes < 1 {
			return fmt.Errorf("lyra: HystCrashes %d must be at least 1 with QuarantineHysteresis on", n.HystCrashes)
		}
		if n.HystWindow <= 0 {
			return fmt.Errorf("lyra: HystWindow %v must be positive with QuarantineHysteresis on", n.HystWindow)
		}
		if n.HystHold <= 0 {
			return fmt.Errorf("lyra: HystHold %v must be positive with QuarantineHysteresis on", n.HystHold)
		}
	}
	if n.TrainingShards < 0 || n.InferenceShards < 0 {
		return fmt.Errorf("lyra: negative shard count (training %d, inference %d)", n.TrainingShards, n.InferenceShards)
	}
	if (n.TrainingShards > 0) != (n.InferenceShards > 0) {
		return fmt.Errorf("lyra: sharded topologies need at least one shard on both sides (training %d, inference %d)", n.TrainingShards, n.InferenceShards)
	}
	if n.TrainingShards > 0 {
		if n.Cluster.TrainingServers > 0 && n.TrainingShards > n.Cluster.TrainingServers {
			return fmt.Errorf("lyra: TrainingShards %d exceeds TrainingServers %d", n.TrainingShards, n.Cluster.TrainingServers)
		}
		if n.Cluster.InferenceServers > 0 && n.InferenceShards > n.Cluster.InferenceServers {
			return fmt.Errorf("lyra: InferenceShards %d exceeds InferenceServers %d", n.InferenceShards, n.Cluster.InferenceServers)
		}
	}
	return nil
}

// DefaultConfig returns the full Lyra system at production scale: SJF+MCKP
// scheduling, elastic scaling, capacity loaning with the knapsack-based
// reclaiming heuristic.
func DefaultConfig() Config {
	return Config{
		Cluster:   cluster.DefaultConfig(),
		Scheduler: SchedLyra,
		Elastic:   true,
		Loaning:   true,
		Reclaim:   ReclaimLyra,
		Scaling:   ScalingModel{HeteroPenalty: 0.7, PerWorkerLoss: 0},
		Headroom:  0.02,
	}
}

// BaselineConfig returns the paper's Baseline: FIFO, no loaning, no elastic
// scaling.
func BaselineConfig() Config {
	return Config{
		Cluster:   cluster.DefaultConfig(),
		Scheduler: SchedFIFO,
		Scaling:   ScalingModel{HeteroPenalty: 0.7},
		Headroom:  0.02,
	}
}

// Report is the per-run result bundle in the units the paper reports.
type Report struct {
	Queue Summary // queuing time, seconds
	JCT   Summary // job completion time, seconds

	// OnLoanQueue and OnLoanJCT cover only jobs that ran on on-loan
	// servers (Table 7).
	OnLoanQueue Summary
	OnLoanJCT   Summary

	TrainUsage   float64 // mean training-cluster GPU usage
	OverallUsage float64 // mean combined usage
	OnLoanUsage  float64 // mean on-loan server usage (Figure 9)

	Preemptions        int
	PreemptionRatio    float64
	ScalingOps         int
	CollateralDamage   float64
	FlexSatisfiedShare float64

	Completed int
	Total     int

	// Crashes / Recoveries count injected server failures applied and
	// quarantined servers returned to service (zero without a fault plan).
	Crashes    int
	Recoveries int
	// LostCapacityGPUSec is the GPU-seconds of capacity spent quarantined
	// over the run (including servers still down at the end) — the
	// lost-capacity-time metric reported by the domainsweep experiment.
	LostCapacityGPUSec float64

	// Events is the recorded JSONL event stream when Config.Events was
	// set (nil otherwise): one deterministic JSON object per line, byte-
	// identical across runs of the same config and trace. Decode it with
	// obs.ReadJSONL or query it with cmd/lyra-events.
	Events []byte

	// Prof is the wall-clock self-timing report when the run was profiled
	// (RunProfiled with a live profiler; nil otherwise). Wall-clock spans
	// are kept strictly outside the deterministic Events stream, so a
	// profiled run's Events are byte-identical to an unprofiled one.
	Prof *prof.Report

	// Raw exposes the underlying simulator result for the experiments
	// harness (usage time series, hourly queued ratios...).
	Raw *sim.Result
}

// Run replays tr under cfg and returns the report. The input trace is
// cloned, so the same trace can be reused across schemes. The config is
// normalized (Normalize) and validated (Validate) first, so misconfigured
// runs fail fast with the registered alternatives listed instead of
// panicking mid-simulation.
//
// Invariant violations (Config.Audit, or the always-on hot-path checks) are
// returned as a *obs.ViolationError — the structured audit report plus,
// when Config.Events is set, the tail of the event ring for the lead-up
// context — instead of escaping as a raw panic.
func Run(cfg Config, tr *Trace) (rep *Report, err error) {
	return RunProfiled(cfg, tr, nil)
}

// RunProfiled is Run with an optional wall-clock span profiler (internal
// prof package, surfaced through the CLIs' -prof/-trace flags). A nil
// profiler is exactly Run. The profiler is deliberately NOT part of Config:
// Config is hashed by the runner's content-addressed cache, and wall-clock
// instrumentation must never change a run's identity. The report's Prof
// field carries the aggregated self-timing snapshot; the profiler itself
// retains the raw spans for Chrome-trace export.
func RunProfiled(cfg Config, tr *Trace, p *prof.Profiler) (rep *Report, err error) {
	cfg = cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	psp := p.Start("prepare")

	var (
		rec  *obs.Recorder
		ring *obs.Ring
		buf  bytes.Buffer
	)
	if cfg.Events {
		ring = obs.NewRing(128)
		rec = obs.NewRecorder(obs.NewJSONLWriter(&buf), ring)
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		ie, ok := r.(*invariant.Error)
		if !ok {
			panic(r)
		}
		rep, err = nil, &obs.ViolationError{Report: ie, Tail: ring.Tail(32)}
	}()
	tr = tr.Clone()
	est := predict.WithError(cfg.FracWrongEstimate, cfg.MaxEstimateError, cfg.Seed+77)
	est.Annotate(tr.Jobs)

	eng := newEngine(cfg, tr, rec, p)
	psp.End()
	psp = p.Start("sim")
	res := eng.Run()
	psp.End()
	psp = p.Start("report")
	rep = buildReport(res, tr)
	if cfg.Events {
		rep.Events = buf.Bytes()
	}
	psp.End()
	rep.Prof = p.Report()
	return rep, nil
}

func buildReport(res *sim.Result, tr *Trace) *Report {
	return &Report{
		Queue:              res.QueuingSummary(),
		JCT:                res.JCTSummary(),
		OnLoanQueue:        res.OnLoanQueuingSummary(),
		OnLoanJCT:          res.OnLoanJCTSummary(),
		TrainUsage:         res.MeanTrainUsage(),
		OverallUsage:       res.MeanOverallUsage(),
		OnLoanUsage:        res.MeanOnLoanUsage(),
		Preemptions:        res.Preemptions,
		PreemptionRatio:    res.PreemptionRatio,
		ScalingOps:         res.ScalingOps,
		CollateralDamage:   res.CollateralDamage,
		FlexSatisfiedShare: res.FlexSatisfiedShare,
		Completed:          res.Completed,
		Total:              len(tr.Jobs),
		Crashes:            res.Crashes,
		Recoveries:         res.Recoveries,
		LostCapacityGPUSec: res.LostCapacityGPUSec,
		Raw:                res,
	}
}
