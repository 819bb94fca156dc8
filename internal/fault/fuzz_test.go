package fault

import (
	"testing"
)

// FuzzParsePlan checks the CLI syntax round trip: a spec that parses
// renders (String) to a spec that parses back to the identical plan, and
// rendering is stable from there on. Specs that fail to parse are fine;
// a panic is not.
func FuzzParsePlan(f *testing.F) {
	for _, s := range []string{
		"",
		"none",
		"mtbf=21600,mttr=300,straggler=0.1,slow=0.5,launchfail=0.05,retries=3,rpcerr=0.05,rpcdelay=0.001,seed=7",
		"mtbf=43200,mttr=600,rackout=21600,rackmttr=900,zoneout=86400,zonemttr=1800",
		"seed=5",
		"straggler=0.1,mttr=300",
		"launchfail=0.1,slow=0.3,rackmttr=60",
		"mtbf=NaN",
		"mttr=NaN,mtbf=600",
		"mtbf=Inf,mttr=+Inf",
		"straggler=-Inf",
		"mtbf=1e400",
		"rpcdelay=1e-320",
		"mtbf=-0,straggler=0.5",
		"seed=9223372036854775808",
		"retries=99999999999999999999,launchfail=0.1",
		"mtbf=0x1p-2, mttr = 5 ,seed=-3",
		"mtbf=1,mtbf=2",
		"bogus=1",
		"mtbf",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("ParsePlan(%q) returned an invalid plan %#v: %v", spec, p, err)
		}
		s := p.String()
		q, err := ParsePlan(s)
		if err != nil {
			t.Fatalf("ParsePlan(%q) = %#v renders %q, which fails to parse: %v", spec, p, s, err)
		}
		if q != p {
			t.Fatalf("round trip of %q through %q: %#v != %#v", spec, s, q, p)
		}
		if s2 := q.String(); s2 != s {
			t.Fatalf("rendering unstable: %q then %q", s, s2)
		}
	})
}
