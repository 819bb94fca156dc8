// Command perfbench is the repository's benchmark. It runs one named
// workload against the public entry points (lyra.GenerateTrace,
// lyra.RunProfiled, lyra.ParseSpec/CompileSpec, runner.Pool.Matrix),
// checks the outputs, and prints every metric by name and unit.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	sh perfbench/run.sh --workload prod-elastic --seed 1 --seconds 32 --trace 0
//
// Each measured run of the workload is a fresh child process, so
// max_rss_mb is that run's own peak. Runs repeat, one after another, until
// --seconds have passed (at least three; a traced run alternates untraced
// and traced runs, at least two of each), and every metric is a median
// over runs; wall-time medians are over the half of the runs the
// hypervisor disturbed least (see quiet). --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Standard error carries a
// readable table and the full result set: machine fingerprint and each
// metric's median, quartiles and sample count.
//
// A run whose check fails (an error, a lost job, an unmet pack SLO,
// simulated statistics that differ between runs of the set) counts as
// failed; the command then names the first failure and exits 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

// Child modes: one run of the workload in this process.
const (
	modeFull   = "full"   // an untraced run, then the set-up measurement
	modePlain  = "plain"  // an untraced run
	modeTraced = "traced" // a traced run
)

// sample is what one child process reports about its run.
type sample struct {
	Mode  string  `json:"mode"`
	WallS float64 `json:"wall_s"`
	// StealS is the CPU time the hypervisor took from this machine's CPUs
	// during the timed run (0 where the kernel does not report it).
	StealS  float64            `json:"steal_s"`
	SetupS  float64            `json:"setup_s,omitempty"`
	Epochs  int64              `json:"epochs"`
	AllocMB float64            `json:"alloc_mb"`
	Sim     simStats           `json:"sim"`
	Layers  map[string]float64 `json:"layers,omitempty"`
	Err     string             `json:"err,omitempty"`
	// MaxRSSMB is the child's peak RSS, filled in by the parent.
	MaxRSSMB float64 `json:"max_rss_mb"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: prod-elastic, prod-sharded-faults, hyperscale, scenario-matrix")
		seed    = flag.Int64("seed", defaultSeed, "seed the workload's inputs are made from")
		seconds = flag.Int("seconds", 10, "how long to keep starting measured runs")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from traced runs")
		child   = flag.String("child", "", "run the workload once in this process in the given mode (used by the benchmark itself)")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds %d: want at least 1", *seconds)
	}
	if err == nil && *child != "" && *child != modeFull && *child != modePlain && *child != modeTraced {
		err = fmt.Errorf("--child %q: want %s, %s or %s", *child, modeFull, modePlain, modeTraced)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *child != "" {
		if err := json.NewEncoder(os.Stdout).Encode(runChild(w, *seed, *child)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(runParent(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1))
}

// runChild runs the workload once and reports the sample. The workload
// runs first, so it sees a fresh process; the full mode measures set-up
// afterwards.
func runChild(w workload, seed int64, mode string) sample {
	s := sample{Mode: mode}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	steal0 := stealSeconds()
	start := time.Now()
	o, err := runOnce(w, seed, mode == modeTraced)
	s.WallS = time.Since(start).Seconds()
	s.StealS = stealSeconds() - steal0
	runtime.ReadMemStats(&after)
	s.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	if err != nil {
		s.Err = describeRunErr(err).Error()
		return s
	}
	if err := check(o); err != nil {
		s.Err = err.Error()
		return s
	}
	s.Sim = summarize(o)
	for _, rep := range o.reports {
		s.Epochs += rep.Raw.SchedEpochs
	}
	if mode == modeTraced {
		s.Layers = layerMetrics(o)
	}
	if mode == modeFull {
		runtime.GC()
		setup, err := measureSetup(w, seed)
		if err != nil {
			s.Err = "set-up: " + describeRunErr(err).Error()
			return s
		}
		s.SetupS = setup
	}
	return s
}

// measureSetup repeats the set-up pass until a quarter second has passed
// (at most 25 times) and returns the median in seconds.
func measureSetup(w workload, seed int64) (float64, error) {
	var ds []float64
	var spent time.Duration
	for spent < 250*time.Millisecond && len(ds) < 25 {
		d, err := setupOnce(w, seed)
		if err != nil {
			return 0, err
		}
		spent += d
		ds = append(ds, d.Seconds())
	}
	_, med, _ := quartiles(ds)
	return med, nil
}

// budget bounds a whole invocation, so a hung run fails the benchmark
// instead of stalling it: a child still running then is killed.
const budget = 170 * time.Second

// spawn runs one child process in the given mode and returns its sample.
func spawn(ctx context.Context, w workload, seed int64, mode string) (sample, error) {
	exe, err := os.Executable()
	if err != nil {
		return sample{}, err
	}
	cmd := exec.CommandContext(ctx, exe, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10), "--child", mode)
	cmd.Stderr = os.Stderr
	// A child must not outlive a benchmark that is stopped early.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return sample{}, fmt.Errorf("child run: %w", err)
	}
	var s sample
	if err := json.Unmarshal(out, &s); err != nil {
		return sample{}, fmt.Errorf("child run: decoding its sample: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.MaxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return s, nil
}

// summary is one metric over the runs of a set.
type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// resultSet is the full record of one benchmark invocation, printed to
// standard error.
type resultSet struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Trace       bool               `json:"trace"`
	Machine     fingerprint        `json:"machine"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	FailedRatio float64            `json:"failed_ratio"`
	FirstError  string             `json:"first_error,omitempty"`
	Metrics     map[string]summary `json:"metrics"`
	Samples     []sample           `json:"samples"`
}

// runParent starts child runs until the time is up, checks them against
// each other, and prints the results.
func runParent(w workload, seed int64, dur time.Duration, traced bool) int {
	rs := resultSet{Workload: w.name, Seed: seed, Seconds: dur.Seconds(), Trace: traced,
		Machine: machine(), Metrics: map[string]summary{}}
	minRuns := 3
	if traced {
		minRuns = 4
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	for i := 0; ctx.Err() == nil && (i < minRuns || time.Since(start) < dur || (traced && i%2 == 1)); i++ {
		mode := modeFull
		if traced {
			mode = modePlain
			if i%2 == 1 {
				mode = modeTraced
			}
		}
		s, err := spawn(ctx, w, seed, mode)
		if err == nil && s.Err != "" {
			err = fmt.Errorf("%s", s.Err)
		}
		if err == nil && len(rs.Samples) > 0 {
			if e := sameSim(rs.Samples[0].Sim, s.Sim); e != nil {
				err = fmt.Errorf("%s run against the first %s run: %w", mode, rs.Samples[0].Mode, e)
			}
		}
		rs.Attempted++
		if err != nil {
			rs.Failed++
			if rs.FirstError == "" {
				rs.FirstError = fmt.Sprintf("run %d: %v", i+1, err)
			}
			continue
		}
		rs.Samples = append(rs.Samples, s)
	}
	rs.FailedRatio = float64(rs.Failed) / float64(rs.Attempted)

	var want []metric
	if traced {
		want = perLayer
		summarizeLayers(&rs)
	} else {
		want = endToEnd
		summarizeEndToEnd(&rs)
	}
	if !report(&rs, want) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d runs failed; first: %s\n", w.name, rs.Failed, rs.Attempted, rs.FirstError)
		return 1
	}
	return 0
}

func (rs *resultSet) add(name, unit string, xs []float64) {
	q1, q2, q3 := quartiles(xs)
	rs.Metrics[name] = summary{Unit: unit, Median: q2, Q1: q1, Q3: q3, N: len(xs)}
}

// quiet returns the less-disturbed half of the samples (rounded up): those
// during which the hypervisor took the smallest share of the machine's CPU
// time. On a shared host, stolen time stretches a run's wall time without
// any change in the work the program does, so the wall-time medians are
// taken over these samples only.
func quiet(ss []sample) []sample {
	s := append([]sample(nil), ss...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].StealS/s[i].WallS < s[j].StealS/s[j].WallS })
	return s[:(len(s)+1)/2]
}

func summarizeEndToEnd(rs *resultSet) {
	var setup, alloc, rss, jct, queue, done []float64
	for _, s := range rs.Samples {
		setup = append(setup, s.SetupS)
		alloc = append(alloc, s.AllocMB)
		rss = append(rss, s.MaxRSSMB)
		jct = append(jct, s.Sim.JCTMean)
		queue = append(queue, s.Sim.QueueMean)
		done = append(done, s.Sim.CompletedRatio)
	}
	_, setupMedian, _ := quartiles(setup)
	var wall, epoch []float64
	for _, s := range quiet(rs.Samples) {
		wall = append(wall, s.WallS)
		if s.Epochs > 0 {
			epoch = append(epoch, (s.WallS-setupMedian)/float64(s.Epochs)*1e6)
		}
	}
	rs.add("wall_s", "s", wall)
	rs.add("setup_s", "s", setup)
	rs.add("epoch_us", "us", epoch)
	rs.add("alloc_mb", "MB", alloc)
	rs.add("max_rss_mb", "MB", rss)
	rs.add("jct_mean_s", "s", jct)
	rs.add("queue_mean_s", "s", queue)
	rs.add("completed_ratio", "ratio", done)
}

func summarizeLayers(rs *resultSet) {
	var plainRuns, tracedRuns []sample
	for _, s := range rs.Samples {
		if s.Mode == modeTraced {
			tracedRuns = append(tracedRuns, s)
		} else {
			plainRuns = append(plainRuns, s)
		}
	}
	var plain, traced []float64
	layers := map[string][]float64{}
	for _, s := range quiet(plainRuns) {
		plain = append(plain, s.WallS)
	}
	for _, s := range quiet(tracedRuns) {
		traced = append(traced, s.WallS)
		for k, v := range s.Layers {
			layers[k] = append(layers[k], v)
		}
	}
	for _, m := range perLayer {
		if xs, ok := layers[m.name]; ok {
			rs.add(m.name, m.unit, xs)
		}
	}
	if len(plain) > 0 && len(traced) > 0 {
		_, p, _ := quartiles(plain)
		_, t, _ := quartiles(traced)
		rs.add("prof.overhead_ratio", "ratio", []float64{t/p - 1})
	}
}

// stealSeconds reads the CPU time the hypervisor has taken from this
// machine's CPUs since boot, from the steal column of /proc/stat (in
// USER_HZ, 100 per second). It is 0 where the kernel does not report it.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// report prints the readable table and the result set to standard error
// and the one-line result to standard output. It returns whether the
// result is correct: no run failed and every wanted metric was measured.
func report(rs *resultSet, want []metric) bool {
	tw := tabwriter.NewWriter(os.Stderr, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "workload %s  seed %d  runs %d  failed_ratio %.4g  (%s, %d CPUs, GOMAXPROCS %d, %s)\n",
		rs.Workload, rs.Seed, rs.Attempted, rs.FailedRatio, rs.Machine.CPU, rs.Machine.NumCPU, rs.Machine.GOMAXPROCS, rs.Machine.GoVersion)
	fmt.Fprintln(tw, "metric\tunit\tmedian\tq1\tq3\tn")
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	complete := true
	for _, m := range want {
		s, ok := rs.Metrics[m.name]
		if !ok {
			complete = false
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%d\n", m.name, m.unit, s.Median, s.Q1, s.Q3, s.N)
		out[m.name] = value{s.Median, m.unit}
	}
	tw.Flush()
	if full, err := json.Marshal(rs); err == nil {
		fmt.Fprintf(os.Stderr, "result set: %s\n", full)
	}
	correct := rs.Failed == 0 && complete
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, rs.Attempted, rs.Failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return false
	}
	fmt.Println(string(line))
	return correct
}
