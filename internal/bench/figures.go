package bench

import (
	"fmt"
	"io"
	"math"

	"kvmarm"
	"kvmarm/internal/energy"
	"kvmarm/internal/workloads"
)

// FigureRow is one workload's normalized measurement across the platform
// configurations (one group of bars in Figures 3–7).
type FigureRow struct {
	Workload string
	// Values maps configuration name → normalized virt/native ratio.
	Values map[string]float64
}

// Figure is a full reproduced figure.
type Figure struct {
	Name    string
	Title   string
	Configs []string
	Rows    []FigureRow
}

// runFigure measures every workload on every configuration at the given
// CPU count.
func runFigure(name, title string, ws []workloads.Workload, cpus int, cfgs []string) (*Figure, error) {
	f := &Figure{Name: name, Title: title, Configs: cfgs}
	for _, w := range ws {
		row := FigureRow{Workload: w.Name, Values: map[string]float64{}}
		for _, cfg := range cfgs {
			ov, err := Overhead(cfg, w, cpus)
			if err != nil {
				return nil, err
			}
			row.Values[cfg] = ov
		}
		f.Rows = append(f.Rows, row)
	}
	return f, nil
}

// Figure3 is UP VM normalized lmbench performance.
func Figure3() (*Figure, error) {
	return runFigure("fig3", "UP VM Normalized lmbench Performance", workloads.LMBench(), 1, Configs())
}

// Figure4 is SMP VM normalized lmbench performance (2 cores, processes
// pinned to separate CPUs).
func Figure4() (*Figure, error) {
	return runFigure("fig4", "SMP VM Normalized lmbench Performance", workloads.LMBench(), 2, Configs())
}

// Figure5 is UP VM normalized application performance.
func Figure5() (*Figure, error) {
	return runFigure("fig5", "UP VM Normalized Application Performance", workloads.Apps(), 1, Configs())
}

// Figure6 is SMP VM normalized application performance.
func Figure6() (*Figure, error) {
	return runFigure("fig6", "SMP VM Normalized Application Performance", workloads.Apps(), 2, Configs())
}

// Figure7 is SMP VM normalized energy consumption: ARM (with and without
// VGIC/vtimers) against the x86 laptop, per §5.2 ("We only compared
// KVM/ARM on ARM against KVM x86 on x86 laptop").
func Figure7() (*Figure, error) {
	cfgs := []struct {
		name  string
		model energy.Model
	}{{"ARM", energy.ARM()}, {"ARM no VGIC/vtimers", energy.ARM()}, {"KVM x86 laptop", energy.X86Laptop()}}
	f := &Figure{Name: "fig7", Title: "SMP VM Normalized Energy Consumption"}
	for _, c := range cfgs {
		f.Configs = append(f.Configs, c.name)
	}
	for _, w := range workloads.Apps() {
		row := FigureRow{Workload: w.Name, Values: map[string]float64{}}
		for _, c := range cfgs {
			nat, err := kvmarm.NewNative(c.name, 2)
			if err != nil {
				return nil, err
			}
			nm := energy.NewMeter(c.model)
			nm.Start(nat.Board)
			if _, err := workloads.Run(nat.System, w); err != nil {
				return nil, err
			}
			nE, _, _ := nm.Energy(nat.Board)

			virt, err := kvmarm.NewVirt(c.name, 2, nil)
			if err != nil {
				return nil, err
			}
			vm := energy.NewMeter(c.model)
			vm.Start(virt.Board)
			if _, err := workloads.Run(virt.System, w); err != nil {
				return nil, err
			}
			vE, _, _ := vm.Energy(virt.Board)
			if nE == 0 {
				return nil, fmt.Errorf("zero native energy for %s on %s", w.Name, c.name)
			}
			row.Values[c.name] = vE / nE
		}
		f.Rows = append(f.Rows, row)
	}
	return f, nil
}

// Print renders a figure as an aligned text table with bar glyphs.
func (f *Figure) Print(w io.Writer) {
	fmt.Fprintf(w, "\n%s — %s\n", f.Name, f.Title)
	fmt.Fprintf(w, "%-16s", "workload")
	for _, c := range f.Configs {
		fmt.Fprintf(w, "%22s", c)
	}
	fmt.Fprintln(w)
	for _, r := range f.Rows {
		fmt.Fprintf(w, "%-16s", r.Workload)
		for _, c := range f.Configs {
			fmt.Fprintf(w, "%22.2f", r.Values[c])
		}
		fmt.Fprintln(w)
	}
}

// Geomean summarises a configuration's column (used in EXPERIMENTS.md).
func (f *Figure) Geomean(cfg string) float64 {
	prod := 1.0
	n := 0
	for _, r := range f.Rows {
		if v, ok := r.Values[cfg]; ok && v > 0 {
			prod *= v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(math.Log(prod) / float64(n))
}
