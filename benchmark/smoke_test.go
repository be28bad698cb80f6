package main

import (
	"testing"

	_ "kvmarm"
)

// smokeDiv is the size divisor of the smoke test: about 1/100 of the
// frozen sizes.
const smokeDiv = 100

// All four workloads at about 1/100 size, in this process, with their
// oracles on. guest-compute also runs traced: tracing must leave the
// simulated outputs alone and no setup span may nest in a timed region
// (runRepeat counts either as a failed op).
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloadNames {
		reps := []*repeatResult{}
		for i, tracing := range []bool{false, w == "guest-compute"} {
			if i > 0 && !tracing {
				continue
			}
			r, err := runRepeat(w, 5, smokeDiv, i, tracing, 0)
			if err != nil {
				t.Fatalf("%s: %v", w, err)
			}
			if r.Ops == 0 || r.GuestInsns == 0 || r.HostWallS <= 0 {
				t.Errorf("%s: %d ops, %d guest instructions, %v s timed", w, r.Ops, r.GuestInsns, r.HostWallS)
			}
			if tracing && (len(r.Spans) == 0 || len(r.Shares) != len(shareBuckets)) {
				t.Errorf("%s: traced repeat has %d spans and %d host shares", w, len(r.Spans), len(r.Shares))
			}
			reps = append(reps, r)
		}
		rep := aggregate(reps) // also compares the repeats' simulated outputs
		if rep.Failed != 0 {
			t.Errorf("%s: %d failed ops: %v", w, rep.Failed, rep.Failures)
		}
		for name, s := range rep.EndToEnd {
			if s.Median <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w, name, s.Median)
			}
		}
	}
}

// exit-storm's accuracy oracle: the raw phases cost what Table 3 says, and
// Table 3 is as close to the paper as when the benchmark was defined.
func TestExitStormAgainstTable3(t *testing.T) {
	r, err := runRepeat("exit-storm", 5, smokeDiv, 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	errPct, failures, err := checkTable3(r.PerOp, sizesFor(smokeDiv).backends)
	if err != nil || len(failures) != 0 {
		t.Errorf("exit-storm against Table 3: %v %v", err, failures)
	}
	if errPct < 1 || errPct > paperErrCeiling {
		t.Errorf("paper_err_pct = %v", errPct)
	}
}

// Another seed gives other simulated outputs; the same seed the same.
func TestSmokeOutputsFollowTheSeed(t *testing.T) {
	a, err := runRepeat("traffic-steady", 1, smokeDiv, 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := runRepeat("traffic-steady", 1, smokeDiv, 1, false, 0)
	c, _ := runRepeat("traffic-steady", 2, smokeDiv, 0, false, 0)
	if b == nil || c == nil || a.Output != b.Output || a.Output == c.Output {
		t.Errorf("outputs: seed 1 %s, seed 1 again %v, seed 2 %v", a.Output, b, c)
	}
}
