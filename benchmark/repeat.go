package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// workloadFuncs are the four workloads, by their permanent names.
var workloadFuncs = map[string]workloadFn{
	"guest-compute":  guestCompute,
	"exit-storm":     exitStorm,
	"traffic-steady": trafficSteady,
	"fleet-churn":    fleetChurn,
}

var workloadNames = []string{"guest-compute", "exit-storm", "traffic-steady", "fleet-churn"}

type workloadFn = func(rec *recorder, seed uint64, sz sizes) error

// workloadFunc looks a workload up by name.
func workloadFunc(name string) (workloadFn, error) {
	fn, ok := workloadFuncs[name]
	if !ok {
		return nil, fmt.Errorf("benchmark: unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	return fn, nil
}

// repeatResult is what one repeat of one workload reports: host-time facts
// of this run, and the simulated results that must be identical in every
// repeat with the same seed.
type repeatResult struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Repeat   int    `json:"repeat"`
	Traced   bool   `json:"traced"`

	SetupS     float64 `json:"setup_s"`
	HostWallS  float64 `json:"host_wall_s"`
	HostCPUS   float64 `json:"host_cpu_s"`
	VerifyS    float64 `json:"verify_s"`
	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	PeakRSSMB  float64 `json:"peak_rss_mb"`
	GCFrac     float64 `json:"gc_frac"`

	GuestInsns uint64                `json:"guest_insns"`
	Ops        uint64                `json:"ops"`
	Failed     uint64                `json:"failed"`
	Failures   []string              `json:"failures,omitempty"`
	Backends   map[string]backendRow `json:"backends"`
	Counts     map[string]float64    `json:"counts"`
	PerOp      map[string]uint64     `json:"per_op,omitempty"`
	// Output digests every simulated output of the repeat (cycle counts,
	// final registers and memory, server tables).
	Output string `json:"output"`

	Spans  []span             `json:"spans,omitempty"`
	Shares map[string]float64 `json:"shares,omitempty"`
}

// runRepeat runs one repeat of a workload in this process. startup is the
// host time that passed before main began (process creation and runtime
// start), which belongs to setup.
func runRepeat(workload string, seed uint64, div, repeat int, tracing bool, startup time.Duration) (*repeatResult, error) {
	fn, err := workloadFunc(workload)
	if err != nil {
		return nil, err
	}
	rec := newRecorder(workload, repeat, tracing)
	rec.startup = startup
	if err := fn(rec, seed, sizesFor(div)); err != nil {
		return nil, err
	}
	res := &repeatResult{
		Workload: workload, Seed: seed, Repeat: repeat, Traced: tracing,
		SetupS: rec.setupD().Seconds(), HostWallS: rec.timedD.Seconds(), HostCPUS: rec.cpuD.Seconds(),
		VerifyS: rec.verifyD.Seconds(), Mallocs: rec.mallocs, AllocBytes: rec.allocBytes, PeakRSSMB: peakRSSMB(),
		GuestInsns: rec.insns, Failed: rec.failed, Failures: rec.failures,
		Backends: map[string]backendRow{}, Counts: rec.counts, PerOp: rec.perOp,
		Output: digest(rec.outputs...), Spans: rec.spans,
	}
	if rec.busyCPUS > 0 {
		res.GCFrac = rec.gcCPUS / rec.busyCPUS
	}
	for name, row := range rec.backends {
		res.Backends[name] = *row
		res.Ops += row.Ops
	}
	if tracing {
		for _, s := range rec.spans {
			if (s.Name == "new_env" || s.Name == "load_image") && underTimed(rec.spans, s) {
				res.Failed++
				res.Failures = append(res.Failures, fmt.Sprintf("%s: span %d (%s) nests under the timed region", workload, s.ID, s.Name))
			}
		}
		shares, err := hostShares(rec.profiles)
		if err != nil {
			return nil, err
		}
		res.Shares = shares
	}
	return res, nil
}

// underTimed reports whether span s has a "timed" ancestor.
func underTimed(spans []span, s span) bool {
	for p := s.Parent; p != 0; p = spans[p-1].Parent {
		if spans[p-1].Name == "timed" {
			return true
		}
	}
	return false
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
