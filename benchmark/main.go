// Command benchmark is the repository's performance instrument: four sized
// workloads on two clocks (simulated cycles and host time), an oracle on
// every output, per-layer probes and a traced run. See README.md here for
// the metric catalogue and BENCHMARK.json at the repository root for the
// declared names, units and bounds.
//
//	go run ./benchmark run [-seed N] [-workload W] [-trace]   every metric, as JSON
//	go run ./benchmark selfcheck [-seed N]                    two sets must agree
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//
// The last form is the acceptance driver's: one workload, measured for
// about S seconds, one JSON object on the last line of standard output.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	_ "kvmarm" // registers the five backends
)

// defaultRepeats is how many repeats `run` and `selfcheck` take per
// workload; the driver's form repeats for as long as it was told to.
const defaultRepeats = 5

// minRepeats is the fewest repeats a median is taken over.
const minRepeats = 3

func main() {
	// The board is a single-threaded discrete-event simulator: more host
	// threads than two only add scheduling noise.
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}
	if err := dispatch(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func dispatch(args []string) error {
	if len(args) == 0 {
		return errors.New("usage: benchmark run|selfcheck [flags], or --workload W --seed N --seconds S --trace 0|1")
	}
	switch args[0] {
	case "child":
		return childMain(args[1:])
	case "run":
		return runMain(args[1:])
	case "selfcheck":
		return selfcheckMain(args[1:])
	}
	if strings.HasPrefix(args[0], "-") {
		return driverMain(args)
	}
	return fmt.Errorf("benchmark: unknown command %q", args[0])
}

// childMain runs one repeat in this process and prints its result as one
// line of JSON. A fresh process per repeat makes setup time and peak
// resident memory facts of that repeat alone.
func childMain(args []string) error {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "input seed")
	repeat := fs.Int("repeat", 0, "repeat number")
	tracing := fs.Bool("trace", false, "attach tracer, profiler and spans")
	spawned := fs.Int64("spawned", 0, "when the parent started this process, Unix nanoseconds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var startup time.Duration
	if *spawned > 0 {
		startup = time.Since(time.Unix(0, *spawned))
	}
	res, err := runRepeat(*workload, *seed, 1, *repeat, *tracing, startup)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// spawn runs one repeat in a child process and waits for it.
func spawn(workload string, seed uint64, repeat int, tracing bool) (*repeatResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "child", "-workload", workload, fmt.Sprint("-seed=", seed),
		fmt.Sprint("-repeat=", repeat), fmt.Sprint("-trace=", tracing),
		fmt.Sprint("-spawned=", time.Now().UnixNano()))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("benchmark: %s repeat %d: %w", workload, repeat, err)
	}
	var res repeatResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("benchmark: %s repeat %d printed no result: %w", workload, repeat, err)
	}
	return &res, nil
}

// repeats runs untraced repeats one after another: n of them, or, when
// n is 0, as many as fit in the budget (at least minRepeats): a repeat is
// started only while the time the ones before it took on average is left.
func repeats(workload string, seed uint64, n int, budget time.Duration) ([]*repeatResult, error) {
	var out []*repeatResult
	start := time.Now()
	for i := 0; ; i++ {
		if n > 0 && i >= n {
			break
		}
		if spent := time.Since(start); n == 0 && i >= minRepeats && spent+spent/time.Duration(i) > budget {
			break
		}
		r, err := spawn(workload, seed, i, false)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// measured is one workload's complete measurement.
type measured struct {
	report *workloadReport
	traced *repeatResult // nil without -trace
}

// measure runs a workload's untraced repeats and, when tracing, the
// traced repeat, and applies the oracles that run once per measurement.
func measure(workload string, seed uint64, n int, budget time.Duration, tracing bool, probes map[string]float64) (*measured, error) {
	reps, err := repeats(workload, seed, n, budget)
	if err != nil {
		return nil, err
	}
	return finish(workload, seed, reps, tracing, probes)
}

// finish turns a workload's untraced repeats into its measurement.
func finish(workload string, seed uint64, reps []*repeatResult, tracing bool, probes map[string]float64) (*measured, error) {
	m := &measured{report: aggregate(reps)}
	extra := map[string]float64{"paper_err_pct": 0}
	if workload == "exit-storm" {
		errPct, failures, err := checkTable3(reps[0].PerOp, allBackends)
		if err != nil {
			return nil, err
		}
		extra["paper_err_pct"] = errPct
		m.report.Failed += uint64(len(failures))
		m.report.Failures = append(m.report.Failures, failures...)
	}
	if tracing {
		var err error
		if m.traced, err = spawn(workload, seed, len(reps), true); err != nil {
			return nil, err
		}
		m.report.Attempted += m.traced.Ops
		m.report.Failed += m.traced.Failed
		m.report.Failures = append(m.report.Failures, m.traced.Failures...)
		if m.traced.Output != reps[0].Output {
			m.report.Failed++
			m.report.Failures = append(m.report.Failures, workload+": tracing changed the simulated outputs")
		}
		m.report.PerLayer = perLayerOf(m.traced, reps, probes, extra)
	}
	m.report.FailRatio = float64(m.report.Failed) / float64(m.report.Attempted)
	return m, nil
}

// driverMain is the acceptance driver's entry point.
func driverMain(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 0, "how long to measure")
	tracing := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	if _, err := workloadFunc(*workload); err != nil {
		return err
	}
	// Untraced, repeat for as long as told. The traced measurement spends
	// its time on the probes and the traced repeat; two untraced repeats
	// give it a wall time to compare.
	n, budget := 0, time.Duration(*seconds)*time.Second
	var probes map[string]float64
	if *tracing == 1 {
		if probes, err = runProbes(driverProbes); err != nil {
			return err
		}
		n = 2
	}
	m, err := measure(*workload, *seed, n, budget, *tracing == 1, probes)
	if err != nil {
		return err
	}
	declared, values := sp.EndToEnd, m.report.medians()
	if *tracing == 1 {
		declared, values = sp.PerLayer, m.report.PerLayer
		if err := writeTrace([]*measured{m}); err != nil {
			return err
		}
	}
	metrics, err := render(declared, values)
	if err != nil {
		return err
	}
	for _, f := range m.report.Failures {
		fmt.Fprintln(os.Stderr, "FAIL:", f)
	}
	return json.NewEncoder(os.Stdout).Encode(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{m.report.Failed == 0, m.report.Attempted, m.report.Failed, metrics})
}

// runAll measures the given workloads one after another, each with its
// traced repeat when tracing. probes, when not nil, are the layer probes'
// results, folded into every workload's per-layer metrics.
func runAll(names []string, seed uint64, tracing bool, probes map[string]float64) ([]*measured, error) {
	var out []*measured
	for _, w := range names {
		fmt.Fprintf(os.Stderr, "benchmark: %s, seed %d, %d repeats\n", w, seed, defaultRepeats)
		m, err := measure(w, seed, defaultRepeats, 0, tracing, probes)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// runMain is `benchmark run`: every workload, every metric by name.
func runMain(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "input seed")
	workload := fs.String("workload", "", "run only this workload")
	tracing := fs.Bool("trace", false, "add the traced run and the layer probes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	names := workloadNames
	if *workload != "" {
		if _, err := workloadFunc(*workload); err != nil {
			return err
		}
		names = []string{*workload}
	}
	var probes map[string]float64
	if *tracing {
		if probes, err = runProbes(fullProbes); err != nil {
			return err
		}
	}
	ms, err := runAll(names, *seed, *tracing, probes)
	if err != nil {
		return err
	}
	if *tracing {
		if err := writeTrace(ms); err != nil {
			return err
		}
	}
	var failed uint64
	reports := make([]*workloadReport, 0, len(ms))
	for _, m := range ms {
		// Printing goes through render too: a metric the code computes
		// and BENCHMARK.json does not declare (or the reverse) is an error.
		if _, err := render(sp.EndToEnd, m.report.medians()); err != nil {
			return err
		}
		if *tracing {
			if _, err := render(sp.PerLayer, m.report.PerLayer); err != nil {
				return err
			}
		}
		failed += m.report.Failed
		reports = append(reports, m.report)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(struct {
		Units     map[string]string `json:"units"`
		Workloads []*workloadReport `json:"workloads"`
	}{units(sp), reports}); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("benchmark: %d failed ops (oracle mismatches included)", failed)
	}
	return nil
}

func units(sp *spec) map[string]string {
	u := map[string]string{}
	for _, list := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
		for _, m := range list {
			u[m.Name] = m.Unit
		}
	}
	return u
}

// writeTrace writes the spans of the traced repeats, kept in memory until
// now, to benchmark/out/trace.json.
func writeTrace(ms []*measured) error {
	var spans []span
	for _, m := range ms {
		if m.traced != nil {
			spans = append(spans, m.traced.Spans...)
		}
	}
	dir := filepath.Join("benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(struct {
		Spans []span `json:"spans"`
	}{spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), raw, 0o644)
}
