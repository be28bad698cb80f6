package main

import (
	"sort"
	"testing"
)

// emittedNames lists every metric name the benchmark can print, without
// running anything: the end-to-end and per-layer assemblies are applied
// to an empty repeat, and the probe names come from the probe table.
func emittedNames() (endToEnd, perLayer []string) {
	blank := &repeatResult{Backends: map[string]backendRow{}, Counts: map[string]float64{}, Ops: 1, HostWallS: 1}
	for name := range endToEndOf(blank) {
		endToEnd = append(endToEnd, name)
	}
	probes := map[string]float64{}
	for _, p := range layerProbes() {
		probes[p.name+"_ns"] = 0
		if _, ok := exitProbeBackends[p.name]; ok {
			probes[p.name+"_allocs"] = 0
		}
	}
	for name := range perLayerOf(blank, []*repeatResult{blank}, probes, map[string]float64{"paper_err_pct": 0}) {
		perLayer = append(perLayer, name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

// BENCHMARK.json stays inside the contract's limits, and the names it
// declares are exactly the names the code emits.
func TestEveryEmittedNameIsDeclared(t *testing.T) {
	sp, err := loadSpec() // validates names, units, bounds and counts
	if err != nil {
		t.Fatal(err)
	}
	var declaredWorkloads []string
	for _, w := range sp.Workloads {
		declaredWorkloads = append(declaredWorkloads, w.Name)
		if _, ok := workloadFuncs[w.Name]; !ok {
			t.Errorf("workload %s is declared but not implemented", w.Name)
		}
	}
	if len(declaredWorkloads) != len(workloadNames) {
		t.Errorf("declared workloads %v, implemented %v", declaredWorkloads, workloadNames)
	}
	endToEnd, perLayer := emittedNames()
	zeros := func(names []string) map[string]float64 {
		m := map[string]float64{}
		for _, n := range names {
			if !nameRE.MatchString(n) {
				t.Errorf("emitted name %q is not 1 to 64 of [A-Za-z0-9_.-]", n)
			}
			m[n] = 0
		}
		return m
	}
	if _, err := render(sp.EndToEnd, zeros(endToEnd)); err != nil {
		t.Error(err)
	}
	if _, err := render(sp.PerLayer, zeros(perLayer)); err != nil {
		t.Error(err)
	}
	setup := false
	for _, m := range sp.EndToEnd {
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range sp.EndToEnd {
				if *o.Bound > *m.Bound {
					t.Errorf("%s has a larger bound than setup_s", o.Name)
				}
			}
		}
	}
	if !setup {
		t.Error("setup_s (unit s, lower is better) is not declared end to end")
	}
}

func TestSpecValidationRejects(t *testing.T) {
	b := 0.1
	ok := func() *spec {
		return &spec{
			Workloads: []specWorkload{{"a", "why"}, {"b", "why"}},
			EndToEnd:  []specMetric{{Name: "setup_s", Unit: "s", Better: "lower", Bound: &b}},
			PerLayer:  []specMetric{{Name: "x.y_ns", Unit: "ns", Better: "lower"}},
		}
	}
	if err := ok().validate(); err != nil {
		t.Fatalf("a valid spec was rejected: %v", err)
	}
	big := 0.3
	for name, breakIt := range map[string]func(s *spec){
		"one workload":        func(s *spec) { s.Workloads = s.Workloads[:1] },
		"nine workloads":      func(s *spec) { s.Workloads = make([]specWorkload, 9) },
		"no end-to-end":       func(s *spec) { s.EndToEnd = nil },
		"17 end-to-end":       func(s *spec) { s.EndToEnd = make([]specMetric, 17) },
		"129 per-layer":       func(s *spec) { s.PerLayer = make([]specMetric, 129) },
		"bad name":            func(s *spec) { s.PerLayer[0].Name = "has space" },
		"duplicate name":      func(s *spec) { s.PerLayer[0].Name = "setup_s" },
		"bad unit":            func(s *spec) { s.PerLayer[0].Unit = "per second" },
		"bad direction":       func(s *spec) { s.PerLayer[0].Better = "bigger" },
		"bound too large":     func(s *spec) { s.EndToEnd[0].Bound = &big },
		"end-to-end no bound": func(s *spec) { s.EndToEnd[0].Bound = nil },
		"per-layer bound":     func(s *spec) { s.PerLayer[0].Bound = &b },
	} {
		s := ok()
		breakIt(s)
		if s.validate() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
