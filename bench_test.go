// Benchmarks regenerating the paper's evaluation artifacts. Each table and
// figure of §5 has a benchmark that rebuilds the platforms and reruns the
// measurement; the reported ns/op is simulation wall time, while the
// printed metrics carry the measured simulated-cycle results.
//
//	go test -bench=. -benchmem
package kvmarm_test

import (
	"testing"

	"kvmarm"
	"kvmarm/internal/bench"
	"kvmarm/internal/workloads"
)

// BenchmarkTable3Micro regenerates the full micro-architectural cycle
// table (Hypercall, Trap, I/O Kernel, I/O User, IPI, EOI+ACK across the
// four platform configurations).
func BenchmarkTable3Micro(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table3()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(float64(r.Values["ARM"]), sanitize(r.Name)+"-ARM-cycles")
			}
		}
	}
}

// benchFigure runs one figure regeneration per iteration.
func benchFigure(b *testing.B, f func() (*bench.Figure, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		fig, err := f()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(fig.Rows) > 0 {
			for _, cfg := range fig.Configs {
				b.ReportMetric(fig.Geomean(cfg), "geomean-overhead/"+sanitize(cfg))
			}
		}
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r == ' ' || r == '/' {
			r = '-'
		}
		out = append(out, r)
	}
	return string(out)
}

// BenchmarkFigure3UPlmbench regenerates Figure 3 (UP VM normalized
// lmbench performance).
func BenchmarkFigure3UPlmbench(b *testing.B) { benchFigure(b, bench.Figure3) }

// BenchmarkFigure4SMPlmbench regenerates Figure 4 (SMP VM normalized
// lmbench performance).
func BenchmarkFigure4SMPlmbench(b *testing.B) { benchFigure(b, bench.Figure4) }

// BenchmarkFigure5UPApps regenerates Figure 5 (UP VM normalized
// application performance).
func BenchmarkFigure5UPApps(b *testing.B) { benchFigure(b, bench.Figure5) }

// BenchmarkFigure6SMPApps regenerates Figure 6 (SMP VM normalized
// application performance).
func BenchmarkFigure6SMPApps(b *testing.B) { benchFigure(b, bench.Figure6) }

// BenchmarkFigure7Energy regenerates Figure 7 (SMP VM normalized energy
// consumption).
func BenchmarkFigure7Energy(b *testing.B) { benchFigure(b, bench.Figure7) }

// Single-workload benchmarks: the per-configuration overhead of one
// representative workload each, for quick iteration.

func benchOverhead(b *testing.B, w workloads.Workload, cpus int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		ov, err := bench.Overhead("ARM", w, cpus)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(ov, "overhead")
		}
	}
}

// BenchmarkARMPipeSMP measures the SMP pipe overhead on KVM/ARM (the
// worst-case lmbench row of Figure 4).
func BenchmarkARMPipeSMP(b *testing.B) { benchOverhead(b, workloads.LatPipe(), 2) }

// BenchmarkARMApacheSMP measures the SMP apache overhead on KVM/ARM (the
// headline application result of Figure 6).
func BenchmarkARMApacheSMP(b *testing.B) { benchOverhead(b, workloads.Apache(), 2) }

// BenchmarkGuestBoot measures bringing up the full stack: board, host
// kernel, KVM init, VM creation and an unmodified guest kernel boot.
func BenchmarkGuestBoot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := kvmarm.NewVirt("ARM", 2, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(sys.Board.Now()), "boot-cycles")
		}
	}
}

// BenchmarkX86GuestBoot is the comparator stack's boot.
func BenchmarkX86GuestBoot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := kvmarm.NewVirt("KVM x86 laptop", 2, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLazyVGICAblation measures the §3.5 optimisation: hypercall-path
// cost with the lazy list-register switch on vs off (the DESIGN.md
// ablation).
func BenchmarkLazyVGICAblation(b *testing.B) {
	measure := func(lazy bool) float64 {
		sys, err := kvmarm.NewVirtWith("ARM", 2, kvmarm.VirtOptions{LazyVGIC: lazy})
		if err != nil {
			b.Fatal(err)
		}
		res, err := workloads.Run(sys.System, workloads.LatSyscall())
		if err != nil {
			b.Fatal(err)
		}
		return float64(res.Cycles)
	}
	for i := 0; i < b.N; i++ {
		eager := measure(false)
		lazy := measure(true)
		if i == 0 {
			b.ReportMetric(eager/lazy, "eager-vs-lazy")
		}
	}
}
