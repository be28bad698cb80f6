// Cross-backend conformance: every registered backend must boot the same
// micro-op guest and expose the same behaviour through the hv interfaces
// alone. The test never names a concrete hypervisor type — new backends
// are covered the moment they register. Each backend runs the same
// matrix: single-vCPU boot, SMP guest-OS boot, MMIO round trips through
// registered kernel and user regions, the ONE_REG save/restore interface
// with its not-while-running rule, pause/resume semantics, and VMID
// allocation up to exhaustion; on the ARM rows with virtual timers, the
// emulation of a trapped physical-counter read.
package hv_test

import (
	"errors"
	"testing"

	_ "kvmarm" // registers the ARM and x86 backends
	"kvmarm/internal/arm"
	"kvmarm/internal/hv"
	"kvmarm/internal/isa"
	"kvmarm/internal/kernel"
	"kvmarm/internal/machine"
)

// marker is a guest-physical address the program stores to; reading it
// back through the VM exercises guest-memory access plus the lazy
// second-stage fault path on the store.
const marker = machine.RAMBase + 1<<20

// Unused guest-physical windows for the conformance MMIO devices.
const (
	confKernDevBase = 0x1D10_0000
	confUserDevBase = 0x1D20_0000
)

// conformanceProgram stores 0x5A to the marker address (one Stage-2/EPT
// fault), issues an observable hypercall, and powers off (a second
// hypercall). r0 still holds 0x5A at shutdown.
func conformanceProgram() []uint32 {
	return isa.NewAsm(machine.RAMBase).
		MOV32(isa.R1, marker).
		MOVW(isa.R0, 0x5A).
		STR(isa.R0, isa.R1, 0).
		HVC(1).
		HVC(kernel.PSCISystemOff).
		MustAssemble()
}

// mmioProgram writes a distinct value to each emulated device window and
// reads each window back into its own register, so the full
// guest -> exit -> handler -> guest data path is observable on both ends.
func mmioProgram() []uint32 {
	return isa.NewAsm(machine.RAMBase).
		MOV32(isa.R1, confKernDevBase).
		MOVW(isa.R0, 0x11).
		STR(isa.R0, isa.R1, 0).
		LDR(isa.R2, isa.R1, 4).
		MOV32(isa.R1, confUserDevBase).
		MOVW(isa.R0, 0x22).
		STR(isa.R0, isa.R1, 8).
		LDR(isa.R3, isa.R1, 12).
		HVC(kernel.PSCISystemOff).
		MustAssemble()
}

func progBytes(words []uint32) []byte {
	raw := make([]byte, 0, len(words)*4)
	for _, w := range words {
		raw = append(raw, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	return raw
}

// rawGuest builds a 1-vCPU VM ready to run prog as a bare machine-code
// guest (no guest OS).
func rawGuest(t *testing.T, be *hv.Backend, prog []uint32) (*hv.Env, hv.VM, hv.VCPU) {
	t.Helper()
	env, err := be.NewEnv(1)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := env.HV.CreateVM(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	v, err := vm.CreateVCPU(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.WriteGuestMem(machine.RAMBase, progBytes(prog)); err != nil {
		t.Fatal(err)
	}
	if err := v.SetOneReg(hv.RegPC, machine.RAMBase); err != nil {
		t.Fatal(err)
	}
	if err := v.SetOneReg(hv.RegCPSR, uint32(arm.ModeSVC)|arm.PSRI|arm.PSRF); err != nil {
		t.Fatal(err)
	}
	v.SetGuestSoftware(nil, &isa.Interp{})
	return env, vm, v
}

// runToShutdown starts the vCPU thread and runs the board until the host
// has no live work left.
func runToShutdown(t *testing.T, env *hv.Env, v hv.VCPU) {
	t.Helper()
	if _, err := v.StartThread(0); err != nil {
		t.Fatal(err)
	}
	if !env.Board.Run(80_000_000, func() bool { return env.Host.LiveCount() == 0 }) {
		t.Fatalf("guest did not finish (state=%s)", v.State())
	}
}

// confDev is a recording MMIO device: reads return ReadVal, writes are
// latched with their offset.
type confDev struct {
	name             string
	ReadVal          uint64
	LastOff, LastVal uint64
	Writes           int
}

func (d *confDev) Name() string { return d.name }
func (d *confDev) Read(v hv.VCPU, off uint64, size int) uint64 {
	return d.ReadVal
}
func (d *confDev) Write(v hv.VCPU, off uint64, size int, val uint64) {
	d.Writes++
	d.LastOff, d.LastVal = off, val
}

func TestBackendConformance(t *testing.T) {
	backends := hv.Backends()
	if len(backends) < 5 {
		t.Fatalf("expected the three ARM and two x86 backends registered, got %d", len(backends))
	}
	for _, be := range backends {
		be := be
		t.Run(be.Name, func(t *testing.T) {
			t.Run("boot", func(t *testing.T) { testBoot(t, be) })
			t.Run("smp", func(t *testing.T) { testSMPBoot(t, be) })
			t.Run("mmio", func(t *testing.T) { testMMIORoundTrip(t, be) })
			t.Run("onereg", func(t *testing.T) { testOneReg(t, be) })
			t.Run("pause", func(t *testing.T) { testPauseResume(t, be) })
			t.Run("vmids", func(t *testing.T) { testVMIDExhaustion(t, be) })
			t.Run("cntpct", func(t *testing.T) { testPhysCounterTrap(t, be) })
		})
	}
}

func testBoot(t *testing.T, be *hv.Backend) {
	env, vm, v := rawGuest(t, be, conformanceProgram())
	runToShutdown(t, env, v)

	if v.State() != "shutdown" {
		t.Errorf("vCPU state = %q, want shutdown", v.State())
	}
	st := vm.StatsSnapshot()
	if st.Hypercalls < 2 {
		t.Errorf("hypercalls = %d, want >= 2", st.Hypercalls)
	}
	if st.Stage2Faults == 0 {
		t.Error("expected at least one second-stage fault for the marker store")
	}
	if v.ExitStats().Exits == 0 {
		t.Error("expected vCPU exits")
	}
	b, err := vm.ReadGuestMem(marker, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 0x5A {
		t.Errorf("marker byte = %#x, want 0x5A", b[0])
	}
	r0, err := v.GetOneReg(hv.RegGP(0))
	if err != nil {
		t.Fatal(err)
	}
	if r0 != 0x5A {
		t.Errorf("r0 = %#x, want 0x5A", r0)
	}
}

// testSMPBoot boots a full 2-vCPU guest OS through the standard bring-up
// sequence and checks both vCPUs actually entered the guest.
func testSMPBoot(t *testing.T, be *hv.Backend) {
	env, err := be.NewEnv(2)
	if err != nil {
		t.Fatal(err)
	}
	vm, guest, err := hv.BootGuest(env, 2, 96<<20, be.BootBudget, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !guest.Booted() {
		t.Fatalf("guest not booted: %v", guest.Err())
	}
	vcpus := vm.VCPUs()
	if len(vcpus) != 2 {
		t.Fatalf("VCPUs() = %d, want 2", len(vcpus))
	}
	for i, v := range vcpus {
		if v.VCPUID() != i {
			t.Errorf("vCPU %d reports id %d", i, v.VCPUID())
		}
		st := v.ExitStats()
		if st.Entries == 0 {
			t.Errorf("vCPU %d never entered the guest", i)
		}
		if st.Exits == 0 {
			t.Errorf("vCPU %d never exited", i)
		}
	}
	if len(env.HV.VMs()) != 1 {
		t.Errorf("VMs() = %d, want 1", len(env.HV.VMs()))
	}
}

// testMMIORoundTrip drives one write and one read through a registered
// in-kernel region and a registered user-space region, checking the data
// on both the handler and the guest side, and that the backend classified
// the user exits as such.
func testMMIORoundTrip(t *testing.T, be *hv.Backend) {
	env, vm, v := rawGuest(t, be, mmioProgram())
	kdev := &confDev{name: "conf-kern", ReadVal: 0x77}
	udev := &confDev{name: "conf-user", ReadVal: 0x99}
	vm.AddKernelMMIO(confKernDevBase, 0x1000, kdev)
	vm.AddUserMMIO(confUserDevBase, 0x1000, udev)
	runToShutdown(t, env, v)

	if kdev.Writes != 1 || kdev.LastOff != 0 || kdev.LastVal != 0x11 {
		t.Errorf("kernel device saw writes=%d off=%#x val=%#x, want 1/0/0x11",
			kdev.Writes, kdev.LastOff, kdev.LastVal)
	}
	if udev.Writes != 1 || udev.LastOff != 8 || udev.LastVal != 0x22 {
		t.Errorf("user device saw writes=%d off=%#x val=%#x, want 1/8/0x22",
			udev.Writes, udev.LastOff, udev.LastVal)
	}
	r2, err := v.GetOneReg(hv.RegGP(2))
	if err != nil {
		t.Fatal(err)
	}
	if r2 != 0x77 {
		t.Errorf("kernel-region read r2 = %#x, want 0x77", r2)
	}
	r3, err := v.GetOneReg(hv.RegGP(3))
	if err != nil {
		t.Fatal(err)
	}
	if r3 != 0x99 {
		t.Errorf("user-region read r3 = %#x, want 0x99", r3)
	}
	st := vm.StatsSnapshot()
	if st.MMIOExits < 4 {
		t.Errorf("MMIOExits = %d, want >= 4", st.MMIOExits)
	}
	if st.MMIOUserExits < 2 {
		t.Errorf("MMIOUserExits = %d, want >= 2 (user region must take the QEMU path)", st.MMIOUserExits)
	}
	if st.MMIOUserExits >= st.MMIOExits {
		t.Errorf("user exits (%d) must be a strict subset of MMIO exits (%d)", st.MMIOUserExits, st.MMIOExits)
	}
}

// testOneReg exercises the §4 user-space register interface on a
// never-started vCPU: every listed register must round-trip through
// SetOneReg/GetOneReg, and a SaveAllRegs snapshot must restore exactly
// after the whole file is clobbered.
func testOneReg(t *testing.T, be *hv.Backend) {
	env, err := be.NewEnv(1)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := env.HV.CreateVM(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	v, err := vm.CreateVCPU(0)
	if err != nil {
		t.Fatal(err)
	}
	ids := hv.RegList()
	if len(ids) < 38 {
		t.Fatalf("register list has %d entries, want at least the Table 1 GP set", len(ids))
	}
	seen := map[hv.RegID]bool{}
	for i, id := range ids {
		if seen[id] {
			t.Fatalf("register id %#x listed twice", uint32(id))
		}
		seen[id] = true
		want := uint32(0xA500_0000) | uint32(i)
		if err := v.SetOneReg(id, want); err != nil {
			t.Fatalf("SetOneReg(%#x): %v", uint32(id), err)
		}
		got, err := v.GetOneReg(id)
		if err != nil {
			t.Fatalf("GetOneReg(%#x): %v", uint32(id), err)
		}
		if got != want {
			t.Errorf("reg %#x round-trip: got %#x, want %#x", uint32(id), got, want)
		}
	}
	// Unknown IDs must error on both paths, not panic or alias.
	if _, err := v.GetOneReg(hv.RegID(0xFF00_0001)); err == nil {
		t.Error("GetOneReg of unknown id must fail")
	}
	if err := v.SetOneReg(hv.RegID(0xFF00_0001), 1); err == nil {
		t.Error("SetOneReg of unknown id must fail")
	}

	snap, err := hv.SaveAllRegs(v)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if err := v.SetOneReg(id, 0xDEAD_BEEF); err != nil {
			t.Fatal(err)
		}
	}
	if err := hv.RestoreAllRegs(v, snap); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		got, err := v.GetOneReg(id)
		if err != nil {
			t.Fatal(err)
		}
		if want := uint32(0xA500_0000) | uint32(i); got != want {
			t.Errorf("reg %#x after restore: got %#x, want %#x", uint32(id), got, want)
		}
	}

	// The not-while-running rule: a vCPU loaded on a physical CPU keeps
	// its registers in hardware, so both accessors must refuse until it
	// is parked. (The loop hypercalls so a park request gets an exit to
	// land on; rawGuest runs with interrupts masked.)
	spin := isa.NewAsm(machine.RAMBase).Label("loop").ADDI(isa.R5, isa.R5, 1).HVC(1).B("loop").MustAssemble()
	env, _, rv := rawGuest(t, be, spin)
	if _, err := rv.StartThread(0); err != nil {
		t.Fatal(err)
	}
	if !env.Board.Run(5_000_000, func() bool { return rv.State() == "running" }) {
		t.Fatalf("spinning guest never observed running (state=%s)", rv.State())
	}
	if _, err := rv.GetOneReg(hv.RegPC); err == nil {
		t.Error("GetOneReg on a running vCPU must fail")
	}
	if err := rv.SetOneReg(hv.RegPC, machine.RAMBase); err == nil {
		t.Error("SetOneReg on a running vCPU must fail")
	}
	rv.Pause()
	if !env.Board.Run(10_000_000, rv.Paused) {
		t.Fatalf("spinning guest did not park (state=%s)", rv.State())
	}
	if r5, err := rv.GetOneReg(hv.RegGP(5)); err != nil || r5 == 0 {
		t.Errorf("parked vCPU r5 = %d, %v; want its loop count", r5, err)
	}
}

// testPauseResume checks the user-space pause protocol of §4: a pause
// parks the vCPU, a parked vCPU answers register reads, and a resume
// re-enters the guest.
func testPauseResume(t *testing.T, be *hv.Backend) {
	env, err := be.NewEnv(1)
	if err != nil {
		t.Fatal(err)
	}
	vm, _, err := hv.BootGuest(env, 1, 96<<20, be.BootBudget, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := vm.VCPUs()[0]
	if v.Paused() {
		t.Fatal("fresh vCPU must not report paused")
	}
	v.Pause()
	if !env.Board.Run(10_000_000, v.Paused) {
		t.Fatalf("vCPU did not park after Pause (state=%s)", v.State())
	}
	if v.State() != "paused" {
		t.Errorf("state = %q, want paused", v.State())
	}
	// A parked vCPU is exactly what the migration path needs: its
	// registers must be readable.
	if _, err := v.GetOneReg(hv.RegPC); err != nil {
		t.Errorf("GetOneReg on paused vCPU: %v", err)
	}
	// A paused vCPU makes no progress.
	entries := v.ExitStats().Entries
	for i := 0; i < 50_000; i++ {
		env.Board.Step()
	}
	if got := v.ExitStats().Entries; got != entries {
		t.Errorf("paused vCPU entered the guest %d more times", got-entries)
	}
	v.Resume()
	if v.Paused() {
		t.Error("vCPU still paused after Resume")
	}
	if !env.Board.Run(20_000_000, func() bool { return v.ExitStats().Entries > entries }) {
		t.Fatalf("vCPU did not re-enter the guest after Resume (state=%s)", v.State())
	}
}

// testVMIDExhaustion creates VMs until the backend runs out of VMIDs. The
// TLB tags translations with an 8-bit VMID and reserves 0 for the host's
// own, so exactly 255 VMs fit; one more must fail with the typed error —
// and keep failing — rather than wrap onto the host's tag or a live VM's.
func testVMIDExhaustion(t *testing.T, be *hv.Backend) {
	env, err := be.NewEnv(1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint8]bool{}
	for i := 0; i < 255; i++ {
		vm, err := env.HV.CreateVM(16 << 20)
		if err != nil {
			t.Fatalf("VM %d: %v", i+1, err)
		}
		id := vm.ID()
		if id == 0 {
			t.Fatalf("VM %d got VMID 0, the host's TLB tag", i+1)
		}
		if seen[id] {
			t.Fatalf("VM %d got VMID %d, already in use", i+1, id)
		}
		seen[id] = true
	}
	for i := 0; i < 2; i++ {
		if _, err := env.HV.CreateVM(16 << 20); !errors.Is(err, hv.ErrOutOfVMIDs) {
			t.Fatalf("VM %d: err = %v, want ErrOutOfVMIDs", 256+i, err)
		}
	}
	if n := len(env.HV.VMs()); n != 255 {
		t.Errorf("VMs() = %d, want 255", n)
	}
}

// testPhysCounterTrap reads the physical counter from a raw guest. On an
// ARM board with virtual timers, CNTHCTL=0 keeps the physical counter for
// the hypervisor, so the read traps and is emulated in user space, while
// the virtual counter reads on either side of it do not trap. Split mode
// and VHE run the same emulation: it returns the guest's virtual count at
// the moment of the trap and costs one user-space MMIO exit.
func testPhysCounterTrap(t *testing.T, be *hv.Backend) {
	if be.X86 != nil || !be.Board.HasVirtTimer {
		t.Skip("only ARM boards with virtual timers trap the physical counter alone")
	}
	prog := isa.NewAsm(machine.RAMBase).
		MRC(isa.R2, uint16(arm.SysCNTVCTLo)).
		MRC(isa.R3, uint16(arm.SysCNTPCTLo)).
		MRC(isa.R4, uint16(arm.SysCNTVCTLo)).
		HVC(kernel.PSCISystemOff).
		MustAssemble()
	env, vm, v := rawGuest(t, be, prog)
	runToShutdown(t, env, v)
	var r [5]uint32
	for i := 2; i <= 4; i++ {
		val, err := v.GetOneReg(hv.RegGP(i))
		if err != nil {
			t.Fatal(err)
		}
		r[i] = val
	}
	if r[2] == 0 || r[3] < r[2] || r[3] > r[4] {
		t.Errorf("CNTVCT %d, emulated CNTPCT %d, CNTVCT %d: want the virtual count at the trap, between the two direct reads", r[2], r[3], r[4])
	}
	if n := vm.StatsSnapshot().MMIOUserExits; n != 1 {
		t.Errorf("MMIOUserExits = %d, want 1 (the emulated counter read)", n)
	}
}
