// Live-migration downtime measurement: for every same-family pair of
// registered backends, migrate a mid-workload writer guest and report the
// pause-to-resume window in board cycles, with and without iterative
// pre-copy. This is the quantitative side of the ROADMAP migration item:
// pre-copy should shrink the stop-and-copy round to the residual dirty
// set, and downtime with it.
package bench

import (
	"fmt"
	"io"
	"runtime"

	"kvmarm/internal/arm"
	"kvmarm/internal/hv"
	"kvmarm/internal/isa"
	"kvmarm/internal/kernel"
	"kvmarm/internal/machine"
)

// MigrationRow is one source→destination measurement.
type MigrationRow struct {
	Src, Dst string
	// PagesTotal is the mapped working set at stop time.
	PagesTotal int
	// PagesPrecopied / PagesFinal split the pre-copy run's transfer into
	// live-phase and downtime-window pages.
	PagesPrecopied, PagesFinal int
	// DowntimePre / DowntimeFull are the pause-to-resume windows (board
	// cycles) with iterative pre-copy on and off.
	DowntimePre, DowntimeFull uint64
}

const (
	migBenchCount = machine.RAMBase + 1<<20
	migBenchBuf   = machine.RAMBase + 2<<20
	migBenchCold  = machine.RAMBase + 3<<20
	// migBenchIters is sized so the writer is still mid-loop when the
	// step-budgeted pre-copy rounds reach the stop phase: board steps
	// retire whole decoded blocks on the ARM backends, so the budgets
	// below cover several hundred iterations.
	migBenchIters = 3000
	// migBenchColdPages is the write-sparse bulk pre-copy gets to move
	// outside the downtime window.
	migBenchColdPages = 64
)

// migrationWorkload is a writer loop: each iteration bumps a counter,
// stores it to a live page and to an advancing log pointer, and hypercalls
// (so a pause request parks at the next exit).
func migrationWorkload() []uint32 {
	return isa.NewAsm(machine.RAMBase).
		MOV32(isa.R1, migBenchBuf).
		MOV32(isa.R3, migBenchCount).
		MOVW(isa.R2, 0).
		Label("loop").
		ADDI(isa.R2, isa.R2, 1).
		STR(isa.R2, isa.R3, 0).
		STR(isa.R2, isa.R1, 0).
		ADDI(isa.R1, isa.R1, 4).
		HVC(1).
		CMPI(isa.R2, migBenchIters).
		BNE("loop").
		HVC(kernel.PSCISystemOff).
		MustAssemble()
}

// newMigSource boots the writer workload on src as a raw 1-vCPU guest and
// runs it mid-workload, ready to be migrated (shared with the fault table).
func newMigSource(src *hv.Backend) (*hv.Env, hv.VM, hv.VCPU, error) {
	env, err := src.NewEnv(1)
	if err != nil {
		return nil, nil, nil, err
	}
	vm, err := env.HV.CreateVM(64 << 20)
	if err != nil {
		return nil, nil, nil, err
	}
	v, err := vm.CreateVCPU(0)
	if err != nil {
		return nil, nil, nil, err
	}
	prog := migrationWorkload()
	raw := make([]byte, 0, len(prog)*4)
	for _, w := range prog {
		raw = append(raw, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	if err := vm.WriteGuestMem(machine.RAMBase, raw); err != nil {
		return nil, nil, nil, err
	}
	cold := make([]byte, migBenchColdPages*4096)
	for i := range cold {
		cold[i] = byte(i)
	}
	if err := vm.WriteGuestMem(migBenchCold, cold); err != nil {
		return nil, nil, nil, err
	}
	if err := v.SetOneReg(hv.RegPC, machine.RAMBase); err != nil {
		return nil, nil, nil, err
	}
	if err := v.SetOneReg(hv.RegCPSR, uint32(arm.ModeSVC)|arm.PSRI|arm.PSRF); err != nil {
		return nil, nil, nil, err
	}
	v.SetGuestSoftware(nil, &isa.Interp{})
	if _, err := v.StartThread(0); err != nil {
		return nil, nil, nil, err
	}
	mid := func() bool {
		b, err := vm.ReadGuestMem(migBenchCount, 4)
		if err != nil {
			return false
		}
		return uint32(b[0])|uint32(b[1])<<8|uint32(b[2])<<16|uint32(b[3])<<24 >= 80
	}
	step := 0
	if !env.Board.Run(40_000_000, func() bool { step++; return step%512 == 0 && mid() }) {
		return nil, nil, nil, fmt.Errorf("source workload made no progress on %s", src.Name)
	}
	return env, vm, v, nil
}

// measureMigration runs one source→destination migration and returns the
// result. The source runs mid-workload before the move begins.
func measureMigration(src, dst *hv.Backend, precopy bool) (*hv.MigrateResult, error) {
	env, vm, v, err := newMigSource(src)
	if err != nil {
		return nil, err
	}
	dstEnv, err := dst.NewEnv(1)
	if err != nil {
		return nil, err
	}
	dstVM, err := dstEnv.HV.CreateVM(64 << 20)
	if err != nil {
		return nil, err
	}
	// Short pre-copy rounds keep the guest mid-workload at the stop
	// phase; the downtime numbers are for a live handoff.
	res, err := hv.Migrate(env, vm, dstEnv, dstVM, hv.MigrateOptions{
		Precopy:     precopy,
		Rounds:      2,
		RoundBudget: 300,
		ConfigureVCPU: func(id int, v hv.VCPU) {
			v.SetGuestSoftware(nil, &isa.Interp{})
		},
	})
	if err != nil {
		return nil, err
	}
	if v.State() == "shutdown" {
		return nil, fmt.Errorf("source finished before the stop phase; not a live migration")
	}
	return res, nil
}

// MigrationRows measures every same-family source→destination pair.
func MigrationRows() ([]MigrationRow, error) {
	var rows []MigrationRow
	for _, src := range hv.Backends() {
		for _, dst := range hv.Backends() {
			if src.IsARM() != dst.IsARM() {
				continue
			}
			pre, err := measureMigration(src, dst, true)
			if err != nil {
				return nil, fmt.Errorf("%s -> %s (pre-copy): %w", src.Name, dst.Name, err)
			}
			full, err := measureMigration(src, dst, false)
			if err != nil {
				return nil, fmt.Errorf("%s -> %s (stop-and-copy): %w", src.Name, dst.Name, err)
			}
			// Each measurement retires two boards (256 MiB RAM backing
			// apiece); collect them before the heap target balloons and
			// GC stalls dominate the sweep's wall time.
			runtime.GC()
			rows = append(rows, MigrationRow{
				Src: src.Name, Dst: dst.Name,
				PagesTotal:     pre.PagesTotal,
				PagesPrecopied: pre.PagesPrecopied,
				PagesFinal:     pre.PagesFinal,
				DowntimePre:    pre.DowntimeCycles,
				DowntimeFull:   full.DowntimeCycles,
			})
		}
	}
	return rows, nil
}

// PrintMigration renders the measurement as a text table.
func PrintMigration(w io.Writer, rows []MigrationRow) {
	fmt.Fprintf(w, "\nLive-migration downtime (board cycles; pre-copy vs. stop-and-copy)\n")
	fmt.Fprintf(w, "%-22s %-22s %8s %8s %8s %12s %12s\n",
		"source", "destination", "pages", "precopied", "final", "downtime", "full-copy")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %-22s %8d %8d %8d %12d %12d\n",
			r.Src, r.Dst, r.PagesTotal, r.PagesPrecopied, r.PagesFinal, r.DowntimePre, r.DowntimeFull)
	}
}
