package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// selfcheckMain is `benchmark selfcheck`: two complete sets of the same
// build and seed must agree within the benchmark's own bounds. Simulated
// metrics, event counts and the failure ratio must be equal; every host
// end-to-end metric's two medians must lie within its declared bound.
func selfcheckMain(args []string) error {
	fs := flag.NewFlagSet("selfcheck", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "input seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	// The two sets are taken as a parent and a change are to be compared:
	// in pairs of repeats, alternating which set goes first, so that a
	// slow minute of the box falls on both.
	var sets [2][]*measured
	for _, w := range workloadNames {
		fmt.Fprintf(os.Stderr, "benchmark: selfcheck, %s, seed %d, 2 sets of %d repeats\n", w, *seed, defaultRepeats)
		var reps [2][]*repeatResult
		for i := 0; i < 2*defaultRepeats; i++ {
			set := (i + 1) / 2 % 2 // 0 1 1 0 0 1 ...
			r, err := spawn(w, *seed, i/2, false)
			if err != nil {
				return err
			}
			reps[set] = append(reps[set], r)
		}
		for i := range sets {
			// The traced repeat supplies the event counts; the probes
			// measure single layers on the host clock and have no bound
			// to hold.
			m, err := finish(w, *seed, reps[i], true, nil)
			if err != nil {
				return err
			}
			sets[i] = append(sets[i], m)
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tset 1\tset 2\tgap\tbound\t")
	bad := 0
	for w := range sets[0] {
		a, b := sets[0][w].report, sets[1][w].report
		row := func(metric string, x, y float64, bound float64, exact bool) {
			gap := 0.0
			if x != y {
				gap = math.Abs(y-x) / math.Max(math.Abs(x), math.Abs(y))
			}
			verdict, limit := "", fmt.Sprintf("%.0f%%", 100*bound)
			if exact {
				limit = "exact"
			}
			if (exact && x != y) || (!exact && gap > bound) {
				verdict = "  FAIL"
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.2f%%\t%s\t%s\n", a.Workload, metric, x, y, 100*gap, limit, verdict)
		}
		for _, m := range sp.EndToEnd {
			row(m.Name, a.EndToEnd[m.Name].Median, b.EndToEnd[m.Name].Median, *m.Bound, simulated[m.Name])
		}
		row("fail_ratio", a.FailRatio, b.FailRatio, 0, true)
		var counts []string
		for name := range a.PerLayer {
			if exactPerLayer(name) {
				counts = append(counts, name)
			}
		}
		sort.Strings(counts)
		for _, name := range counts {
			row(name, a.PerLayer[name], b.PerLayer[name], 0, true)
		}
		bad += len(a.Failures) + len(b.Failures)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("benchmark: selfcheck failed: %d metrics outside their bound or failed ops", bad)
	}
	fmt.Println("selfcheck: ok")
	return nil
}

// exactPerLayer reports whether a per-layer metric is simulated state,
// equal in every run of a seed: event counts, ratios of them, and the
// per-backend simulated rows.
func exactPerLayer(name string) bool {
	for _, prefix := range []string{"count.", "net.frames_", "dev.rx_", "hv.pages_", "hv.migrate_rounds", "fleet.shared_frac", "kernel.preemptions"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	switch name {
	case "mmu.tlb_misses", "mmu.tlb_hit_ratio", "mmu.cow_breaks", "mmu.dirty_faults",
		"isa.block_hit_ratio", "isa.block_invals", "sim_downtime_cycles", "paper_err_pct":
		return true
	}
	return strings.Contains(name, ".sim_")
}
