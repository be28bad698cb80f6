package bench

import (
	"fmt"
	"io"

	"kvmarm"
	"kvmarm/internal/arm"
	"kvmarm/internal/hv"
	"kvmarm/internal/kernel"
	"kvmarm/internal/workloads"
)

// The §6 hardware recommendations ("Make VGIC state access fast, or at
// least infrequent"; "Completely avoid IPI traps") plus the §3.5 lazy
// list-register switch, measured as an ablation matrix over every ARM
// backend: each cell flips exactly one feature on one backend and reports
// the micro-benchmark cost without and with it. The simulation is fully
// deterministic, so the rendered table is byte-stable and kept under a
// golden file.

// AblationRow is one feature row of the ablation table; Values maps a
// backend name to its rendered cell.
type AblationRow struct {
	Name   string
	Values map[string]string
}

// AblationTable measures the three feature ablations on every ARM
// backend, in registration order (the x86 comparators have none of this
// hardware). Backends without a VGIC get "n/a" cells — all three
// features extend the VGIC.
func AblationTable() ([]AblationRow, []string, error) {
	var cols []string
	rows := []AblationRow{
		{Name: "summary register (hypercall)", Values: map[string]string{}},
		{Name: "direct virtual IPIs (IPI)", Values: map[string]string{}},
		{Name: "lazy VGIC switch (hypercall)", Values: map[string]string{}},
	}
	for _, be := range hv.Backends() {
		if !be.IsARM() {
			continue
		}
		cfg := be.Name
		cols = append(cols, cfg)
		if !be.Board.HasVGIC {
			for _, r := range rows {
				r.Values[cfg] = "n/a"
			}
			continue
		}
		cell := func(base, opt uint64) string {
			return fmt.Sprintf("%d -> %d (%+.0f%%)", base, opt,
				100*(float64(opt)-float64(base))/float64(base))
		}
		hvcWith := func(opt kvmarm.VirtOptions) (uint64, error) {
			sys, err := kvmarm.NewVirtWith(cfg, 1, opt)
			if err != nil {
				return 0, err
			}
			return hypercallCycles(sys)
		}
		base, err := hvcWith(kvmarm.VirtOptions{})
		if err != nil {
			return nil, nil, fmt.Errorf("%s base: %w", cfg, err)
		}
		sum, err := hvcWith(kvmarm.VirtOptions{SummaryReg: true})
		if err != nil {
			return nil, nil, fmt.Errorf("%s summary: %w", cfg, err)
		}
		rows[0].Values[cfg] = cell(base, sum)

		lazy, err := hvcWith(kvmarm.VirtOptions{LazyVGIC: true})
		if err != nil {
			return nil, nil, fmt.Errorf("%s lazy: %w", cfg, err)
		}
		rows[2].Values[cfg] = cell(base, lazy)

		ipiWith := func(opt kvmarm.VirtOptions) (uint64, error) {
			sys, err := kvmarm.NewVirtWith(cfg, 2, opt)
			if err != nil {
				return 0, err
			}
			return ipiRoundTrip(sys.System)
		}
		ipiBase, err := ipiWith(kvmarm.VirtOptions{})
		if err != nil {
			return nil, nil, fmt.Errorf("%s ipi base: %w", cfg, err)
		}
		ipiDirect, err := ipiWith(kvmarm.VirtOptions{DirectVIPI: true})
		if err != nil {
			return nil, nil, fmt.Errorf("%s ipi direct: %w", cfg, err)
		}
		rows[1].Values[cfg] = cell(ipiBase, ipiDirect)
	}
	return rows, cols, nil
}

// hypercallCycles measures per-hypercall cycles on a booted guest system
// with a tight null-HVC loop issued from a guest kernel process.
func hypercallCycles(sys *kvmarm.GuestSystem) (uint64, error) {
	v := sys.VM.VCPUs()[0]
	if !sys.Board.Run(20_000_000, func() bool { return v.State() == "wfi" }) {
		return 0, fmt.Errorf("vCPU did not idle")
	}
	start := sys.Board.CPUs[0].Clock
	hcStart := sys.VM.StatsSnapshot().Hypercalls
	n := 0
	if _, err := sys.Guest.Spawn("hvc", 0, kernel.BodyFunc(func(k *kernel.Kernel, p *kernel.Proc, c *arm.CPU) bool {
		c.TakeException(&arm.Exception{Kind: arm.ExcHVC, Imm: 1, HSR: arm.MakeHSR(arm.ECHVC, 1)})
		n++
		return n >= 64
	})); err != nil {
		return 0, err
	}
	if !sys.Board.Run(50_000_000, func() bool { return n >= 64 }) {
		return 0, fmt.Errorf("hypercall loop stalled")
	}
	made := sys.VM.StatsSnapshot().Hypercalls - hcStart
	if made < 64 {
		return 0, fmt.Errorf("only %d hypercalls measured", made)
	}
	return (sys.Board.CPUs[0].Clock - start) / made, nil
}

// ipiRoundTrip measures a virtual IPI round trip between two actively
// running vCPUs (the measureIPI body, reusable on a pre-built system).
func ipiRoundTrip(sys *workloads.System) (uint64, error) {
	const rounds = 24
	var total uint64
	var t0 uint64
	roundsDone := 0
	flag := false
	sys.K.OnIPICall = func(cpu int) {
		if cpu == 1 {
			sys.K.SendIPICall(sys.K.CPU(1), 1<<0)
		} else {
			flag = true
		}
	}
	state := 0
	if _, err := sys.Spawn("ipi-spinner", 1, kernel.BodyFunc(func(k *kernel.Kernel, p *kernel.Proc, c *arm.CPU) bool {
		c.Charge(80)
		return roundsDone >= rounds
	})); err != nil {
		return 0, err
	}
	_, err := sys.Spawn("ipi-sender", 0, kernel.BodyFunc(func(k *kernel.Kernel, p *kernel.Proc, c *arm.CPU) bool {
		switch state {
		case 0:
			if roundsDone >= rounds {
				return true
			}
			flag = false
			t0 = sys.Board.Now()
			k.SendIPICall(c, 1<<1)
			state = 1
			return false
		default:
			if !flag {
				c.Charge(120) // poll
				return false
			}
			total += sys.Board.Now() - t0
			roundsDone++
			state = 0
			return false
		}
	}))
	if err != nil {
		return 0, err
	}
	if !sys.Board.Run(workloads.MaxSteps, func() bool { return roundsDone >= rounds }) {
		return 0, fmt.Errorf("IPI bench stalled at round %d", roundsDone)
	}
	return total / uint64(rounds), nil
}

// PrintAblation renders the ablation matrix.
func PrintAblation(w io.Writer, rows []AblationRow, cols []string) {
	fmt.Fprintf(w, "\n§6 hardware ablations — micro cost without -> with each feature\n")
	fmt.Fprintf(w, "%-30s", "Feature (micro)")
	for _, c := range cols {
		fmt.Fprintf(w, "%26s", c)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-30s", r.Name)
		for _, c := range cols {
			fmt.Fprintf(w, "%26s", r.Values[c])
		}
		fmt.Fprintln(w)
	}
}
