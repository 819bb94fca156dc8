package fault

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestEnabled(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.Enabled() {
		t.Error("nil plan reports enabled")
	}
	if (&Plan{}).Enabled() {
		t.Error("zero plan reports enabled")
	}
	if (&Plan{Seed: 42}).Enabled() {
		t.Error("seed-only plan reports enabled")
	}
	for _, p := range []Plan{
		{ServerMTBF: 3600},
		{StragglerFrac: 0.1},
		{LaunchFailProb: 0.05},
		{RPCErrProb: 0.05},
		{RPCDelay: 0.01},
	} {
		p := p
		if !p.Enabled() {
			t.Errorf("plan %+v reports disabled", p)
		}
	}
}

func TestNormalizeIdempotentAndDefaults(t *testing.T) {
	p := Plan{ServerMTBF: 3600, StragglerFrac: 0.2, LaunchFailProb: 0.1}
	n := p.Normalize()
	if n.ServerMTTR != 600 || n.SlowFactor != 0.5 || n.MaxLaunchRetries != 5 {
		t.Fatalf("defaults not applied: %+v", n)
	}
	if again := n.Normalize(); !reflect.DeepEqual(again, n) {
		t.Fatalf("Normalize not idempotent: %+v vs %+v", again, n)
	}
	if z := (Plan{}).Normalize(); !reflect.DeepEqual(z, Plan{}) {
		t.Fatalf("zero plan does not normalize to itself: %+v", z)
	}
	// A disabled plan with leftover knobs (seed, retry bound) canonicalizes
	// to the zero plan: "no faults" must have one content-hash identity.
	if z := (Plan{Seed: 42, MaxLaunchRetries: 3}).Normalize(); !reflect.DeepEqual(z, Plan{}) {
		t.Fatalf("disabled plan does not normalize to zero: %+v", z)
	}
}

func TestValidate(t *testing.T) {
	good := []Plan{
		{},
		{ServerMTBF: 3600, ServerMTTR: 60},
		{StragglerFrac: 1, SlowFactor: 1},
		{LaunchFailProb: 0.99, RPCErrProb: 0.5, RPCDelay: 2},
	}
	for _, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("plan %+v: unexpected error %v", p, err)
		}
	}
	bad := []Plan{
		{ServerMTBF: -1},
		{ServerMTBF: 10, ServerMTTR: -1},
		{StragglerFrac: 1.5},
		{StragglerFrac: 0.5, SlowFactor: 2},
		{LaunchFailProb: 1},
		{RPCErrProb: -0.1},
		{RPCDelay: -1},
		{LaunchFailProb: 0.1, MaxLaunchRetries: -1},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %+v: want error, got nil", p)
		}
	}
	// NaN and ±Inf fail every comparison the domain checks make, so each
	// float field is checked for them by name.
	floats := map[string]func(*Plan, float64){
		"ServerMTBF":     func(p *Plan, v float64) { p.ServerMTBF = v },
		"ServerMTTR":     func(p *Plan, v float64) { p.ServerMTTR = v },
		"RackOutMTBF":    func(p *Plan, v float64) { p.RackOutMTBF = v },
		"RackMTTR":       func(p *Plan, v float64) { p.RackMTTR = v },
		"ZoneOutMTBF":    func(p *Plan, v float64) { p.ZoneOutMTBF = v },
		"ZoneMTTR":       func(p *Plan, v float64) { p.ZoneMTTR = v },
		"StragglerFrac":  func(p *Plan, v float64) { p.StragglerFrac = v },
		"SlowFactor":     func(p *Plan, v float64) { p.SlowFactor = v },
		"LaunchFailProb": func(p *Plan, v float64) { p.LaunchFailProb = v },
		"RPCErrProb":     func(p *Plan, v float64) { p.RPCErrProb = v },
		"RPCDelay":       func(p *Plan, v float64) { p.RPCDelay = v },
	}
	for name, set := range floats {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			p := Plan{ServerMTBF: 3600}
			set(&p, v)
			err := p.Validate()
			if err == nil || !strings.Contains(err.Error(), name) {
				t.Errorf("%s = %v: got %v, want an error naming the field", name, v, err)
			}
		}
	}
}

func TestNormalizeDropsOrphanedKnobs(t *testing.T) {
	// String renders no knob of a disabled injection, so Normalize must
	// drop them for an enabled plan to have one canonical form.
	p := Plan{Seed: 2, StragglerFrac: 0.1, ServerMTTR: 300, RackMTTR: 60, ZoneMTTR: 60, MaxLaunchRetries: 3, RPCDelay: math.Copysign(0, -1)}
	want := Plan{Seed: 2, StragglerFrac: 0.1, SlowFactor: 0.5}
	if n := p.Normalize(); n != want || math.Signbit(n.RPCDelay) {
		t.Fatalf("Normalize = %#v, want %#v", n, want)
	}
	for _, s := range []string{"none", " none "} {
		if p, err := ParsePlan(s); err != nil || p != (Plan{}) {
			t.Errorf("ParsePlan(%q) = %#v, %v; want the zero plan (String renders it so)", s, p, err)
		}
	}
}

func TestParsePlanRoundTrip(t *testing.T) {
	spec := "mtbf=21600,mttr=300,straggler=0.1,slow=0.5,launchfail=0.05,retries=4,rpcerr=0.02,rpcdelay=0.001,seed=7"
	p, err := ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := Plan{Seed: 7, ServerMTBF: 21600, ServerMTTR: 300, StragglerFrac: 0.1,
		SlowFactor: 0.5, LaunchFailProb: 0.05, MaxLaunchRetries: 4, RPCErrProb: 0.02, RPCDelay: 0.001}
	if p != want {
		t.Fatalf("parsed %+v, want %+v", p, want)
	}
	back, err := ParsePlan(p.String())
	if err != nil {
		t.Fatal(err)
	}
	if back != want {
		t.Fatalf("round trip %+v, want %+v", back, want)
	}
	if empty, err := ParsePlan("  "); err != nil || empty.Enabled() {
		t.Fatalf("blank spec: got %+v, %v", empty, err)
	}
	for _, s := range []string{"bogus=1", "mtbf", "mtbf=abc", "seed=1.5", "mtbf=-2"} {
		if _, err := ParsePlan(s); err == nil {
			t.Errorf("spec %q: want error", s)
		}
	}
}

func TestScheduleDeterministicAndWellFormed(t *testing.T) {
	p := Plan{Seed: 3, ServerMTBF: 7200, ServerMTTR: 600}
	const servers, horizon = 16, 6 * 86400
	a := Schedule(p, servers, horizon)
	b := Schedule(p, servers, horizon)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same plan produced different schedules")
	}
	if len(a) == 0 {
		t.Fatal("crash-enabled plan produced an empty schedule")
	}
	if len(a)%2 != 0 {
		t.Fatalf("schedule has %d events, want crash/recover pairs", len(a))
	}
	// Sorted, and per-server strictly alternating crash -> recover with
	// non-overlapping downtime.
	down := make(map[int]bool)
	last := -1.0
	for i, ev := range a {
		if ev.T < last {
			t.Fatalf("event %d out of order: t=%g after t=%g", i, ev.T, last)
		}
		last = ev.T
		if ev.Recover {
			if !down[ev.Server] {
				t.Fatalf("event %d: recovery of healthy server %d", i, ev.Server)
			}
			down[ev.Server] = false
		} else {
			if down[ev.Server] {
				t.Fatalf("event %d: crash of already-crashed server %d", i, ev.Server)
			}
			down[ev.Server] = true
		}
	}
	for sid, d := range down {
		if d {
			t.Errorf("server %d never recovers", sid)
		}
	}
	// Different seeds must diverge.
	if c := Schedule(Plan{Seed: 4, ServerMTBF: 7200, ServerMTTR: 600}, servers, horizon); reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical schedules")
	}
	// Disabled / degenerate inputs.
	if s := Schedule(Plan{}, servers, horizon); s != nil {
		t.Errorf("no-crash plan produced %d events", len(s))
	}
	if s := Schedule(p, 0, horizon); s != nil {
		t.Errorf("zero servers produced %d events", len(s))
	}
}

func TestSlowFactorForHashStability(t *testing.T) {
	p := &Plan{Seed: 11, StragglerFrac: 0.25, SlowFactor: 0.4}
	slowed := 0
	const n = 10000
	for id := 0; id < n; id++ {
		f := p.SlowFactorFor(id)
		if f != 1 && f != 0.4 {
			t.Fatalf("job %d: factor %g is neither 1 nor SlowFactor", id, f)
		}
		if f != p.SlowFactorFor(id) {
			t.Fatalf("job %d: factor not stable across calls", id)
		}
		if f == 0.4 {
			slowed++
		}
	}
	frac := float64(slowed) / n
	if frac < 0.2 || frac > 0.3 {
		t.Errorf("straggler fraction %.3f far from configured 0.25", frac)
	}
	var nilPlan *Plan
	if nilPlan.SlowFactorFor(1) != 1 {
		t.Error("nil plan slows jobs down")
	}
}

func TestInjectorDraws(t *testing.T) {
	if NewInjector(nil) != nil {
		t.Error("nil plan yields a live injector")
	}
	if NewInjector(&Plan{ServerMTBF: 3600}) != nil {
		t.Error("crash-only plan yields a live injector")
	}
	inj := NewInjector(&Plan{Seed: 9, LaunchFailProb: 0.5, RPCErrProb: 0.5, RPCDelay: 0.01})
	fails, rpcFails, delayed := 0, 0, 0
	const n = 2000
	for i := 0; i < n; i++ {
		if inj.LaunchFails() {
			fails++
		}
		d, f := inj.RPCFault()
		if f {
			rpcFails++
		}
		if d > 0 {
			delayed++
		}
		if d < 0 || d > 0.01 {
			t.Fatalf("delay %g outside [0, RPCDelay]", d)
		}
	}
	for name, got := range map[string]int{"launch failures": fails, "rpc failures": rpcFails} {
		if got < n/4 || got > 3*n/4 {
			t.Errorf("%s: %d of %d draws, want roughly half", name, got, n)
		}
	}
	if delayed < n*9/10 { // uniform in [0, RPCDelay): essentially every draw
		t.Errorf("rpc delays: %d of %d draws nonzero, want nearly all", delayed, n)
	}
	var nilInj *Injector
	if nilInj.LaunchFails() {
		t.Error("nil injector fails launches")
	}
	if d, f := nilInj.RPCFault(); d != 0 || f {
		t.Error("nil injector injects rpc faults")
	}
	if nilInj.MaxRetries() != 5 {
		t.Errorf("nil injector MaxRetries = %d, want default 5", nilInj.MaxRetries())
	}
}

func TestIsInjected(t *testing.T) {
	if !IsInjected(ErrInjectedRPC) || !IsInjected(ErrInjectedLaunch) {
		t.Error("sentinel errors not recognized")
	}
	// net/rpc flattens server-side errors to strings; the substring match
	// must still classify them as injected.
	if !IsInjected(strErr("remote: fault: injected rpc error")) {
		t.Error("string-flattened injected error not recognized")
	}
	if IsInjected(nil) || IsInjected(strErr("testbed: kill unknown container 3")) {
		t.Error("non-injected error classified as injected")
	}
}

type strErr string

func (e strErr) Error() string { return string(e) }
