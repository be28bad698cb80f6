package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// spec is BENCHMARK.json: the one place metric names, units, directions
// and bounds are declared. The benchmark reads its units from it and
// refuses to print a metric it does not declare.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end only
}

// loadSpec reads BENCHMARK.json from the working directory, or from its
// parent when run from inside the benchmark's own directory (go test).
func loadSpec() (*spec, error) {
	var raw []byte
	var err error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if raw, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("benchmark: run from the repository root: %w", err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("benchmark: BENCHMARK.json: %w", err)
	}
	return &s, s.validate()
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validate holds the file to the limits of the benchmark contract.
func (s *spec) validate() error {
	if n := len(s.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("benchmark: %d workloads declared, want 2 to 8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("benchmark: %d end-to-end metrics declared, want 1 to 16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("benchmark: %d per-layer metrics declared, want 1 to 128", n)
	}
	seen := map[string]bool{}
	name := func(n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("benchmark: name %q is not 1 to 64 of [A-Za-z0-9_.-]", n)
		}
		if seen[n] {
			return fmt.Errorf("benchmark: name %q is declared twice", n)
		}
		seen[n] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := name(w.Name); err != nil {
			return err
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			return fmt.Errorf("benchmark: workload %s: why must be 1 to 200 characters", w.Name)
		}
	}
	for i, list := range [][]specMetric{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if err := name(m.Name); err != nil {
				return err
			}
			if !unitRE.MatchString(m.Unit) {
				return fmt.Errorf("benchmark: metric %s: bad unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				return fmt.Errorf("benchmark: metric %s: better must be lower or higher", m.Name)
			}
			switch endToEnd := i == 0; {
			case endToEnd && (m.Bound == nil || *m.Bound < 0 || *m.Bound > 0.25):
				return fmt.Errorf("benchmark: metric %s: bound must be 0 to 0.25", m.Name)
			case !endToEnd && m.Bound != nil:
				return fmt.Errorf("benchmark: per-layer metric %s has a bound", m.Name)
			}
		}
	}
	return nil
}

// metric is one reported value with its declared unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render pairs measured values with the declared metrics of one list.
// Every declared metric must have a value and every value a declaration.
func render(declared []specMetric, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(declared))
	for _, m := range declared {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("benchmark: metric %s is declared in BENCHMARK.json but was not measured", m.Name)
		}
		out[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("benchmark: metric %s was measured but is not declared in BENCHMARK.json", name)
		}
	}
	return out, nil
}
