package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"kvmarm/internal/hv"
	"kvmarm/internal/trace"
)

// The five registry entries, by the alias the benchmark prints.
var allBackends = []string{"arm", "arm-novgic", "arm-vhe", "x86-laptop", "x86-server"}

// clockHz converts simulated cycles to simulated seconds (the modelled
// 1.7 GHz Cortex-A15).
const clockHz = 1.7e9

// span is one interval of host time around a call the benchmark makes
// into the program, recorded only in the traced run.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0: top level
	Name   string  `json:"name"`
	Work   string  `json:"workload"`
	Back   string  `json:"backend"`
	Repeat int     `json:"repeat"`
	Start  float64 `json:"start_s"` // since the repeat began
	Dur    float64 `json:"dur_s"`
	Self   float64 `json:"self_s"` // Dur minus the part child spans cover
}

// backendRow is one backend's part of a repeat.
type backendRow struct {
	HostWallS float64 `json:"host_wall_s"`
	SimCycles uint64  `json:"sim_cycles"`
	Ops       uint64  `json:"ops"`
	Lat       latency `json:"latency"`
}

func (b backendRow) simOpsPerS() float64 {
	if b.SimCycles == 0 {
		return 0
	}
	return float64(b.Ops) * clockHz / float64(b.SimCycles)
}

// recorder is the stopwatch of one repeat. It splits host time into three
// clocks — the timed region (steady state only), verification (the
// oracles) and setup, which is everything else since the process was
// started: runtime start, input generation, boards, images and template
// boots, whenever they happen — and, when tracing, keeps a span for every
// call it wraps.
type recorder struct {
	workload string
	repeat   int
	origin   time.Time

	startup             time.Duration // host time before main began
	timedD, verifyD     time.Duration
	cpuD                time.Duration
	mallocs, allocBytes uint64
	gcCPUS, busyCPUS    float64 // the runtime's CPU accounts over the timed region
	inTimed             bool

	backends map[string]*backendRow
	counts   map[string]float64
	insns    uint64            // guest instructions retired in the timed region
	perOp    map[string]uint64 // exit-storm: "backend/phase" -> cycles per op
	outputs  [][]byte          // simulated outputs, digested to compare repeats
	failures []string
	failed   uint64

	// The traced run: an attached tracer, a span per wrapped call, and a
	// CPU profile per timed region.
	tracing  bool
	tracer   *trace.Tracer
	spans    []span
	stack    []int // open span ids
	backend  string
	profiles [][]byte
}

func newRecorder(workload string, repeat int, tracing bool) *recorder {
	r := &recorder{
		workload: workload, repeat: repeat, origin: time.Now(), tracing: tracing,
		backends: map[string]*backendRow{}, counts: map[string]float64{}, perOp: map[string]uint64{},
	}
	if tracing {
		r.tracer = trace.New(0)
	}
	return r
}

func (r *recorder) row(backend string) *backendRow {
	b := r.backends[backend]
	if b == nil {
		b = &backendRow{}
		r.backends[backend] = b
	}
	return b
}

// failf records one failed op with its reason (an oracle mismatch, a
// request a client gave up on, a rolled-back migration).
func (r *recorder) failf(format string, a ...any) { r.failN(1, format, a...) }

// failN records n failed ops that share a reason.
func (r *recorder) failN(n uint64, format string, a ...any) {
	r.failed += n
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, a...))
	}
}

// span wraps fn in a span when tracing; otherwise it just calls fn.
func (r *recorder) span(name string, fn func() error) error {
	if !r.tracing {
		return fn()
	}
	id := len(r.spans) + 1
	parent := 0
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	start := time.Now()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Work: r.workload,
		Back: r.backend, Repeat: r.repeat, Start: start.Sub(r.origin).Seconds()})
	r.stack = append(r.stack, id)
	err := fn()
	r.stack = r.stack[:len(r.stack)-1]
	d := time.Since(start).Seconds()
	s := &r.spans[id-1]
	s.Dur = d
	s.Self += d
	if parent != 0 {
		r.spans[parent-1].Self -= d
	}
	return err
}

// setup runs a setup step under the named span ("new_env", "load_image")
// and refuses to run one inside a timed region.
func (r *recorder) setup(name string, fn func() error) error {
	if r.inTimed {
		return fmt.Errorf("benchmark: setup step %q inside a timed region", name)
	}
	return r.span(name, fn)
}

// setupD is the setup clock: all host time of the repeat so far that was
// neither timed nor spent verifying.
func (r *recorder) setupD() time.Duration {
	return r.startup + time.Since(r.origin) - r.timedD - r.verifyD
}

// verify runs an oracle on the verification clock.
func (r *recorder) verify(fn func() error) error {
	start := time.Now()
	err := r.span("verify", fn)
	r.verifyD += time.Since(start)
	return err
}

// runtimeCPU reads the runtime's own CPU accounts: seconds spent
// collecting, and seconds not idle. The runtime brings them up to date
// when a collection cycle ends, so a difference of two readings covers the
// cycles that ended between them.
func runtimeCPU() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

func rusageCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timed runs fn as (part of) the timed region, charged to backend. Wall
// time, process CPU time and allocation counts are sampled at the region's
// edges only.
func (r *recorder) timed(backend string, fn func() error) error {
	r.backend = backend
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var prof bytes.Buffer
	if r.tracing {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
	}
	gc0, busy0 := runtimeCPU()
	cpu0 := rusageCPU()
	r.inTimed = true
	start := time.Now()
	err := r.span("timed", fn)
	d := time.Since(start)
	r.inTimed = false
	r.cpuD += rusageCPU() - cpu0
	gc1, busy1 := runtimeCPU()
	r.gcCPUS += gc1 - gc0
	r.busyCPUS += busy1 - busy0
	if r.tracing {
		pprof.StopCPUProfile()
		r.profiles = append(r.profiles, prof.Bytes())
	}
	runtime.ReadMemStats(&m1)
	r.timedD += d
	r.mallocs += m1.Mallocs - m0.Mallocs
	r.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	r.row(backend).HostWallS += d.Seconds()
	r.backend = ""
	return err
}

// lookup resolves a backend alias.
func lookup(name string) (*hv.Backend, error) {
	be, ok := hv.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("benchmark: backend %q is not registered", name)
	}
	return be, nil
}

// newEnv builds a board with a booted host and hypervisor on the setup
// clock, with the tracer attached in the traced run.
func (r *recorder) newEnv(be *hv.Backend, cpus int) (*hv.Env, error) {
	var env *hv.Env
	err := r.setup("new_env", func() (err error) {
		if env, err = be.NewEnv(cpus); err == nil && r.tracer != nil {
			env.HV.AttachTracer(r.tracer)
		}
		return err
	})
	return env, err
}

// retireEnvs collects the boards a workload is done with, on the setup
// clock. Left to the collector's own timing, whether a dead board's RAM is
// freed before the next board is built decides the process's peak memory,
// which then reads one board more or less from run to run.
func (r *recorder) retireEnvs() error {
	return r.setup("retire_env", func() error { runtime.GC(); return nil })
}

// guestInsns sums the instructions the board's CPUs have retired.
func guestInsns(env *hv.Env) uint64 {
	var n uint64
	for _, c := range env.Board.CPUs {
		n += c.Insns
	}
	return n
}
