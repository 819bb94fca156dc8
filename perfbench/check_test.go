package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"lyra"
	"lyra/internal/runner"
)

// tiny shrinks a single-run workload to a 16+16-server cluster and a
// one-day trace, keeping its shape: sharding, faults, degraded-mode
// policies and the MaxTime cap.
func tiny(w workload) workload {
	full := w.single
	w.single = func(seed int64) simCase {
		c := full(seed)
		c.gen.Days = 1
		c.gen.TrainingGPUs = 16 * gpusPerServer
		if c.gen.MaxJobGPUs > 0 {
			c.gen.MaxJobGPUs = 16 / 4 * gpusPerServer
		}
		c.cfg.Cluster = lyra.ClusterConfig{TrainingServers: 16, InferenceServers: 16}
		return c
	}
	return w
}

func mustWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWorkloadShapes runs a tiny version of every single-run workload and
// the full scenario pack, traced and untraced: each passes its check, and
// tracing does not change the simulated statistics.
func TestWorkloadShapes(t *testing.T) {
	for _, w := range workloads {
		if !w.matrix {
			w = tiny(w)
		}
		t.Run(w.name, func(t *testing.T) {
			plain, err := runOnce(w, defaultSeed, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := check(plain); err != nil {
				t.Fatal(err)
			}
			traced, err := runOnce(w, defaultSeed, true)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameSim(summarize(plain), summarize(traced)); err != nil {
				t.Fatalf("traced run: %v", err)
			}
			m := layerMetrics(traced)
			if m["sim.epochs"] == 0 || m["trace.jobs"] == 0 || m["prof.attributed_pct"] < 90 {
				t.Fatalf("traced run lacks its phase tree: %v", m)
			}
			for _, lm := range perLayer {
				if _, ok := m[lm.name]; !ok && lm.name != "prof.overhead_ratio" {
					t.Errorf("per-layer metric %s missing", lm.name)
				}
			}
			if _, err := setupOnce(w, defaultSeed); err != nil {
				t.Fatalf("set-up: %v", err)
			}
		})
	}
}

// TestCheckRejectsDoctoredReports proves the output check can fail: a lost
// job, a dropped job and a changed JCT are each caught.
func TestCheckRejectsDoctoredReports(t *testing.T) {
	w := tiny(mustWorkload(t, "prod-elastic"))
	fresh := func() *outcome {
		o, err := runOnce(w, defaultSeed, false)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	ref := fresh()
	if err := check(ref); err != nil {
		t.Fatalf("undoctored run rejected: %v", err)
	}

	lost := fresh()
	lost.reports[0].Completed--
	if err := check(lost); err == nil || !strings.Contains(err.Error(), "lost") {
		t.Errorf("a lost job passed the check: %v", err)
	}

	dropped := fresh()
	raw := dropped.reports[0].Raw
	raw.Jobs = raw.Jobs[:len(raw.Jobs)-1]
	if err := check(dropped); err == nil {
		t.Error("a dropped job passed the check")
	}

	changed := fresh()
	changed.reports[0].JCT.Mean *= 1.0001
	if err := sameSim(summarize(ref), summarize(changed)); err == nil {
		t.Error("a changed JCT left the simulated statistics equal")
	}
	if err := sameSim(summarize(ref), summarize(fresh())); err != nil {
		t.Errorf("two runs of one workload differ: %v", err)
	}
}

// TestCheckRejectsExceededSLO proves a pack cell over its SLO bound fails
// the check.
func TestCheckRejectsExceededSLO(t *testing.T) {
	cells, err := loadPack(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	var smoke []lyra.CompiledCell
	for _, c := range cells {
		if c.Spec == "smoke" {
			smoke = append(smoke, c)
		}
	}
	if len(smoke) == 0 {
		t.Fatal("the frozen pack has no smoke spec")
	}
	m := runner.New(matrixParallel()).Matrix(smoke)
	o := &outcome{cells: m.Cells, drained: true}
	for _, c := range m.Cells {
		o.reports = append(o.reports, c.Report)
		o.labels = append(o.labels, c.Spec+"/"+c.Cell)
	}
	if err := check(o); err != nil {
		t.Fatalf("undoctored smoke cells rejected: %v", err)
	}
	rep := o.reports[0]
	rep.JCT.P99 = 3600 * (smoke[0].SLO.JCTP99Hours + 1)
	o.cells[0].Violations = smoke[0].SLO.Evaluate(rep, o.cells[0].Wall)
	if err := check(o); err == nil || !strings.Contains(err.Error(), "jct_p99_hours") {
		t.Errorf("an exceeded SLO passed the check: %v", err)
	}
}

// TestHyperscaleAccounting proves the capped-run accounting fails on a
// job that vanished from every state.
func TestHyperscaleAccounting(t *testing.T) {
	o, err := runOnce(tiny(mustWorkload(t, "hyperscale")), defaultSeed, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := check(o); err != nil {
		t.Fatal(err)
	}
	rep := o.reports[0]
	rep.Completed++
	if err := check(o); err == nil {
		t.Error("an over-counted finished job passed the check")
	}
	rep.Completed--
	rep.Raw.Jobs[0].Workers = nil
	rep.Raw.Jobs[0].State = 7
	if err := check(o); err == nil || !strings.Contains(err.Error(), "unaccounted") {
		t.Errorf("a job in no state passed the check: %v", err)
	}
}

// TestQuartilesMatchPython pins the exclusive method against values from
// Python's statistics.quantiles(range(1, 11), n=4) and a two-point set.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{4, 1, 3, 2, 5}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || q2 != tc.q2 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// tables the benchmark prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	same := func(kind string, got []entry, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark prints %+v", kind, i, g, m)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// TestQuietKeepsLeastStolenHalf pins the wall-time sample selection: the
// half (rounded up) with the smallest stolen share of wall time.
func TestQuietKeepsLeastStolenHalf(t *testing.T) {
	ss := []sample{
		{WallS: 4, StealS: 1},
		{WallS: 2, StealS: 0},
		{WallS: 3, StealS: 0.3},
		{WallS: 5, StealS: 2},
		{WallS: 2.5, StealS: 0.05},
	}
	var got []float64
	for _, s := range quiet(ss) {
		got = append(got, s.WallS)
	}
	if want := []float64{2, 2.5, 3}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("quiet kept %v, want %v", got, want)
	}
}
