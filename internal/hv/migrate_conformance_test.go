// Migration conformance: every source→destination backend pair must either
// migrate a mid-workload guest with no guest-visible state divergence
// (same family) or refuse cleanly (cross family). The workload keeps
// writing while pre-copy runs, so the Stage-2 dirty log, the write-protect
// fault path, and the TLB shootdowns are all on the critical path.
package hv_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	_ "kvmarm" // registers the ARM and x86 backends
	"kvmarm/internal/hv"
	"kvmarm/internal/isa"
	"kvmarm/internal/kernel"
	"kvmarm/internal/machine"
)

const (
	// migCountAddr is stored every iteration — the live progress word the
	// host polls to pause mid-workload (and a page that stays dirty).
	migCountAddr = machine.RAMBase + 1<<20
	// migMarkAddr receives a magic word only after the loop completes.
	migMarkAddr = migCountAddr + 4
	// migBufBase is a log the guest appends each count to; its final
	// contents encode the whole execution history.
	migBufBase = machine.RAMBase + 2<<20
	// migIters is the loop count; the marker store and power-off follow.
	// Sized so the guest is still mid-loop when pre-copy's step-budgeted
	// rounds reach the stop phase: a board step retires a whole decoded
	// block on the ARM backends, so the step budgets below cover several
	// hundred iterations, not several hundred instructions.
	migIters = 2000
	// migColdBase/migColdPages: pre-populated pages the guest never
	// writes — the write-sparse bulk that pre-copy should move while the
	// guest runs, keeping the stop-and-copy round small.
	migColdBase  = machine.RAMBase + 3<<20
	migColdPages = 32
)

// migrationProgram: r2 counts 1..migIters; every iteration stores the
// count to migCountAddr and appends it to the buffer at r1, then
// hypercalls (an exit per iteration, so a pause request parks promptly).
// After the loop it stores 0xC0DE1234 to migMarkAddr and powers off.
func migrationProgram() []uint32 {
	return isa.NewAsm(machine.RAMBase).
		MOV32(isa.R1, migBufBase).
		MOV32(isa.R3, migCountAddr).
		MOVW(isa.R2, 0).
		Label("loop").
		ADDI(isa.R2, isa.R2, 1).
		STR(isa.R2, isa.R3, 0).
		STR(isa.R2, isa.R1, 0).
		ADDI(isa.R1, isa.R1, 4).
		HVC(1).
		CMPI(isa.R2, migIters).
		BNE("loop").
		MOV32(isa.R4, 0xC0DE1234).
		STR(isa.R4, isa.R3, 4).
		HVC(kernel.PSCISystemOff).
		MustAssemble()
}

// migGuestState is the guest-visible state a migration must preserve.
type migGuestState struct {
	regs    map[hv.RegID]uint32
	count   uint32
	marker  uint32
	buf     []byte
	console []byte
}

func captureMigState(t *testing.T, vm hv.VM, v hv.VCPU) *migGuestState {
	t.Helper()
	regs, err := hv.SaveAllRegs(v)
	if err != nil {
		t.Fatal(err)
	}
	words, err := vm.ReadGuestMem(migCountAddr, 8)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := vm.ReadGuestMem(migBufBase, migIters*4)
	if err != nil {
		t.Fatal(err)
	}
	return &migGuestState{
		regs:    regs,
		count:   binary.LittleEndian.Uint32(words[0:4]),
		marker:  binary.LittleEndian.Uint32(words[4:8]),
		buf:     buf,
		console: append([]byte(nil), vm.ConsoleBytes()...),
	}
}

func compareMigState(t *testing.T, got, want *migGuestState) {
	t.Helper()
	if got.count != want.count {
		t.Errorf("final count = %d, want %d", got.count, want.count)
	}
	if got.marker != want.marker {
		t.Errorf("final marker = %#x, want %#x", got.marker, want.marker)
	}
	if !bytes.Equal(got.buf, want.buf) {
		t.Error("write-log buffer diverged from unmigrated run")
	}
	if !bytes.Equal(got.console, want.console) {
		t.Error("console output diverged from unmigrated run")
	}
	for id, w := range want.regs {
		if g, ok := got.regs[id]; !ok || g != w {
			t.Errorf("reg %#x = %#x, want %#x", uint32(id), got.regs[id], w)
		}
	}
}

// startMigrationGuest boots the workload as a raw guest and pre-populates
// the cold pages.
func startMigrationGuest(t *testing.T, be *hv.Backend) (*hv.Env, hv.VM, hv.VCPU) {
	t.Helper()
	env, vm, v := rawGuest(t, be, migrationProgram())
	cold := make([]byte, migColdPages*4096)
	for i := range cold {
		cold[i] = byte(i)
	}
	if err := vm.WriteGuestMem(migColdBase, cold); err != nil {
		t.Fatal(err)
	}
	return env, vm, v
}

// baselineMigState runs the workload to completion on be with no
// migration and captures the final guest-visible state.
func baselineMigState(t *testing.T, be *hv.Backend) *migGuestState {
	t.Helper()
	env, vm, v := startMigrationGuest(t, be)
	runToShutdown(t, env, v)
	return captureMigState(t, vm, v)
}

// guestCount reads the live progress word.
func guestCount(t *testing.T, vm hv.VM) uint32 {
	t.Helper()
	b, err := vm.ReadGuestMem(migCountAddr, 4)
	if err != nil {
		t.Fatal(err)
	}
	return binary.LittleEndian.Uint32(b)
}

func TestBackendMigration(t *testing.T) {
	backends := hv.Backends()
	if len(backends) < 5 {
		t.Fatalf("expected five backends registered, got %d", len(backends))
	}
	baselines := map[string]*migGuestState{}
	baseline := func(be *hv.Backend) *migGuestState {
		if baselines[be.Name] == nil {
			baselines[be.Name] = baselineMigState(t, be)
		}
		return baselines[be.Name]
	}
	for _, srcBE := range backends {
		for _, dstBE := range backends {
			srcBE, dstBE := srcBE, dstBE
			t.Run(fmt.Sprintf("%s to %s", srcBE.Name, dstBE.Name), func(t *testing.T) {
				// Each pair allocates two boards (256 MiB RAM backing
				// apiece); collect them promptly or the 25-pair matrix
				// spends its time in GC stalls.
				t.Cleanup(runtime.GC)
				srcEnv, srcVM, srcV := startMigrationGuest(t, srcBE)
				if _, err := srcV.StartThread(0); err != nil {
					t.Fatal(err)
				}
				// Run the source mid-workload: far enough in that state
				// transfer matters, far enough from the end that the
				// destination still has real work left. The progress poll
				// is throttled — a guest-memory read per board step is
				// pure test overhead.
				step := 0
				midWorkload := func() bool {
					step++
					return step%512 == 0 && guestCount(t, srcVM) >= 60
				}
				if !srcEnv.Board.Run(40_000_000, midWorkload) {
					t.Fatalf("source guest made no progress (count=%d)", guestCount(t, srcVM))
				}

				dstEnv, err := dstBE.NewEnv(1)
				if err != nil {
					t.Fatal(err)
				}
				dstVM, err := dstEnv.HV.CreateVM(64 << 20)
				if err != nil {
					t.Fatal(err)
				}
				// Short pre-copy rounds: the guest must still be running
				// at the stop phase, or this degrades to an offline copy.
				res, err := hv.Migrate(srcEnv, srcVM, dstEnv, dstVM, hv.MigrateOptions{
					Precopy:     true,
					Rounds:      2,
					RoundBudget: 300,
					ConfigureVCPU: func(id int, v hv.VCPU) {
						v.SetGuestSoftware(nil, &isa.Interp{})
					},
				})
				if srcBE.IsARM() != dstBE.IsARM() {
					if err == nil {
						t.Fatal("cross-family migration must fail")
					}
					return
				}
				if err != nil {
					t.Fatalf("migration failed: %v", err)
				}

				// The cold pages are write-sparse: iterative pre-copy must
				// move them before the pause, leaving a strictly smaller
				// stop-and-copy round than a full transfer.
				if res.PagesFinal >= res.PagesTotal {
					t.Errorf("stop-and-copy moved %d of %d pages; pre-copy did nothing", res.PagesFinal, res.PagesTotal)
				}
				if res.PagesTotal < migColdPages {
					t.Errorf("PagesTotal = %d, want at least the %d cold pages", res.PagesTotal, migColdPages)
				}
				if res.Rounds < 1 || res.PagesPrecopied == 0 {
					t.Errorf("pre-copy ran %d rounds moving %d pages, want some of each", res.Rounds, res.PagesPrecopied)
				}
				if res.DowntimeCycles == 0 || res.DowntimeCycles != res.PauseWaitCycles+res.TransferCycles {
					t.Errorf("inconsistent downtime accounting: %+v", res)
				}

				if srcV.State() == "shutdown" {
					t.Fatal("source finished before the stop phase; not a live migration")
				}
				if got := guestCount(t, dstVM); got >= migIters {
					t.Fatalf("destination starts with count %d: no work left to do live", got)
				}

				dstV := dstVM.VCPUs()[0]
				if !dstEnv.Board.Run(80_000_000, func() bool { return dstEnv.Host.LiveCount() == 0 }) {
					t.Fatalf("migrated guest did not finish (state=%s, count=%d)",
						dstV.State(), guestCount(t, dstVM))
				}
				if dstV.ExitStats().Entries == 0 {
					t.Error("destination vCPU never entered the guest")
				}
				compareMigState(t, captureMigState(t, dstVM, dstV), baseline(srcBE))
			})
		}
	}
}
