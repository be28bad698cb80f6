package core

import (
	"strings"
	"testing"

	"kvmarm/internal/arm"
	"kvmarm/internal/isa"
	"kvmarm/internal/kernel"
	"kvmarm/internal/machine"
)

// hostEnv boots a host minOS (entered in Hyp mode per the boot protocol)
// and initializes KVM on it.
func hostEnv(t *testing.T, cfg machine.Config) (*machine.Board, *kernel.Kernel, *KVM) {
	t.Helper()
	b, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range b.CPUs {
		c.Secure = false
		c.SetCPSR(uint32(arm.ModeHYP) | arm.PSRI | arm.PSRF)
	}
	host := kernel.New(kernel.Config{
		Name:    "host",
		NumCPUs: cfg.CPUs,
		CPU:     func(i int) *arm.CPU { return b.CPUs[i] },
		HW: kernel.HWConfig{
			GICDistBase: machine.GICDistBase,
			GICCPUBase:  machine.GICCPUBase,
			UARTBase:    machine.UARTBase,
		},
		Mem:       b.RAM,
		AllocBase: machine.RAMBase + (64 << 20),
		AllocSize: 160 << 20,
	})
	if err := host.BootAll(); err != nil {
		t.Fatal(err)
	}
	k, err := Init(b, host)
	if err != nil {
		t.Fatal(err)
	}
	return b, host, k
}

func defaultEnv(t *testing.T) (*machine.Board, *kernel.Kernel, *KVM) {
	return hostEnv(t, machine.DefaultConfig())
}

func TestInitRequiresHypBoot(t *testing.T) {
	b, _ := machine.New(machine.DefaultConfig())
	for _, c := range b.CPUs {
		c.Secure = false
		c.SetCPSR(uint32(arm.ModeSVC) | arm.PSRI) // legacy bootloader: SVC
	}
	host := kernel.New(kernel.Config{
		Name: "host", NumCPUs: 2,
		CPU:       func(i int) *arm.CPU { return b.CPUs[i] },
		Mem:       b.RAM,
		AllocBase: machine.RAMBase + (64 << 20), AllocSize: 64 << 20,
	})
	if err := host.BootAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := Init(b, host); err == nil {
		t.Fatal("KVM must remain disabled when the kernel did not boot in Hyp mode (§4)")
	}
}

// isaGuest builds a VM running a raw SARM32 program at the guest RAM base.
func isaGuest(t *testing.T, k *KVM, prog []uint32, hostCPU int) (*VM, *VCPU) {
	t.Helper()
	vmI, err := k.CreateVM(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	vm := vmI.(*VM)
	vI, err := vm.CreateVCPU(0)
	if err != nil {
		t.Fatal(err)
	}
	v := vI.(*VCPU)
	asm := make([]byte, 0, len(prog)*4)
	for _, w := range prog {
		asm = append(asm, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	if err := vm.WriteGuestMem(machine.RAMBase, asm); err != nil {
		t.Fatal(err)
	}
	v.Ctx.GP.PC = machine.RAMBase
	v.Ctx.GP.CPSR = uint32(arm.ModeSVC) | arm.PSRI | arm.PSRF
	v.SetGuestSoftware(nil, &isa.Interp{})
	if _, err := v.StartThread(hostCPU); err != nil {
		t.Fatal(err)
	}
	return vm, v
}

func TestGuestHypercallAndShutdown(t *testing.T) {
	b, host, k := defaultEnv(t)
	prog := isa.NewAsm(machine.RAMBase).
		MOVW(isa.R0, 42).
		HVC(0x1). // null hypercall: out and straight back in
		ADDI(isa.R0, isa.R0, 1).
		HVC(kernel.PSCISystemOff).
		MustAssemble()
	vm, v := isaGuest(t, k, prog, 0)

	if !b.Run(5_000_000, func() bool { return host.LiveCount() == 0 }) {
		t.Fatalf("vcpu thread did not finish: state=%s pc=%#x", v.State(), v.Ctx.GP.PC)
	}
	if v.State() != "shutdown" {
		t.Fatalf("state = %s", v.State())
	}
	if got := v.Ctx.Reg(0); got != 43 {
		t.Fatalf("guest r0 = %d, want 43 (hypercall must return to next instruction)", got)
	}
	if vm.Stats.Hypercalls < 2 {
		t.Fatalf("hypercalls = %d", vm.Stats.Hypercalls)
	}
	if k.stats.WorldSwitchIn < 2 || k.stats.WorldSwitchOut < 2 {
		t.Fatalf("world switches: in=%d out=%d", k.stats.WorldSwitchIn, k.stats.WorldSwitchOut)
	}
}

func TestStage2FaultsResolveLazily(t *testing.T) {
	b, host, k := defaultEnv(t)
	// Touch several fresh guest pages; each first touch is a Stage-2
	// fault resolved by the highvisor with host memory.
	a := isa.NewAsm(machine.RAMBase)
	a.MOV32(isa.R1, machine.RAMBase+1<<20)
	for i := 0; i < 6; i++ {
		a.MOVW(isa.R2, uint16(i))
		a.STR(isa.R2, isa.R1, 0)
		a.MOV32(isa.R3, 4096)
		a.ADD(isa.R1, isa.R1, isa.R3)
	}
	a.HVC(kernel.PSCISystemOff)
	vm, _ := isaGuest(t, k, a.MustAssemble(), 0)

	if !b.Run(5_000_000, func() bool { return host.LiveCount() == 0 }) {
		t.Fatal("guest did not finish")
	}
	if vm.Stats.Stage2Faults < 6 {
		t.Fatalf("stage-2 faults = %d, want >= 6", vm.Stats.Stage2Faults)
	}
	// The data must actually be in guest memory.
	buf, err := vm.ReadGuestMem(machine.RAMBase+1<<20+2*4096, 4)
	if err != nil {
		t.Fatal(err)
	}
	if buf[0] != 2 {
		t.Fatalf("guest memory = %v", buf)
	}
}

func TestMMIOSyndromePath(t *testing.T) {
	b, host, k := defaultEnv(t)
	// LDR (immediate offset) populates the syndrome: no software decode.
	prog := isa.NewAsm(machine.RAMBase).
		MOV32(isa.R1, machine.VirtBlkBase).
		LDR(isa.R0, isa.R1, 8). // VirtConfig: device class
		HVC(kernel.PSCISystemOff).
		MustAssemble()
	vm, v := isaGuest(t, k, prog, 0)
	if !b.Run(5_000_000, func() bool { return host.LiveCount() == 0 }) {
		t.Fatal("guest did not finish")
	}
	if got := v.Ctx.Reg(0); got != 0 { // dev.VirtBlock == 0
		t.Fatalf("config read = %d", got)
	}
	if vm.Stats.MMIOExits == 0 || vm.Stats.MMIODecoded != 0 {
		t.Fatalf("mmio=%d decoded=%d; want syndrome-described access", vm.Stats.MMIOExits, vm.Stats.MMIODecoded)
	}
	if vm.Stats.MMIOUserExits == 0 {
		t.Fatal("virtio is QEMU-emulated: must count a user-space exit")
	}
}

func TestMMIOSoftwareDecodePath(t *testing.T) {
	b, host, k := defaultEnv(t)
	// LDRR (register offset) does NOT populate the syndrome: the
	// hypervisor must load and decode the instruction (§4).
	a := isa.NewAsm(machine.RAMBase).
		MOV32(isa.R1, machine.VirtNetBase).
		MOVW(isa.R2, 8).
		LDRR(isa.R0, isa.R1, isa.R2).
		HVC(kernel.PSCISystemOff)
	vm, v := isaGuest(t, k, a.MustAssemble(), 0)
	if !b.Run(5_000_000, func() bool { return host.LiveCount() == 0 }) {
		t.Fatal("guest did not finish")
	}
	if got := v.Ctx.Reg(0); got != 1 { // dev.VirtNet == 1
		t.Fatalf("config read = %d", got)
	}
	if vm.Stats.MMIODecoded == 0 {
		t.Fatal("register-offset MMIO must use the software decoder")
	}
}

func TestGuestOSBootsAndRunsProcesses(t *testing.T) {
	b, host, k := defaultEnv(t)
	vmI, err := k.CreateVM(96 << 20)
	if err != nil {
		t.Fatal(err)
	}
	vm := vmI.(*VM)
	v0, _ := vm.CreateVCPU(0)
	g, err := NewGuestOS(vm, 96<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v0.StartThread(0); err != nil {
		t.Fatal(err)
	}

	// Boot the guest kernel first.
	if !b.Run(20_000_000, func() bool { return g.Booted() }) {
		t.Fatalf("guest kernel did not boot: err=%v", g.Err())
	}
	gk := g.K
	if gk.BootedInHyp {
		t.Fatal("guest must not see Hyp mode")
	}
	if !gk.UseVirtTimer {
		t.Fatal("guest must select the virtual timer")
	}

	// Run a guest process: syscalls and fresh memory.
	done := false
	touched := 0
	_, err = g.Spawn("work", 0, kernel.BodyFunc(func(kk *kernel.Kernel, p *kernel.Proc, c *arm.CPU) bool {
		if touched < 5 {
			kk.TouchUserPage(c, uint32(0x0020_0000+touched*4096))
			touched++
			return false
		}
		kk.SyscallGetPID(0, c)
		done = true
		kk.PowerOff(c)
		return true
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !b.Run(50_000_000, func() bool { return host.LiveCount() == 0 }) {
		t.Fatalf("guest run did not finish: done=%v touched=%d state=%s", done, touched, v0.State())
	}
	if !done {
		t.Fatal("guest process did not complete")
	}
	if gk.Stats.Syscalls == 0 || gk.Stats.PageFaults < 5 {
		t.Fatalf("guest kernel stats: %+v", gk.Stats)
	}
	if vm.Stats.Stage2Faults == 0 {
		t.Fatal("fresh guest pages must take stage-2 faults")
	}
}

func TestGuestNanosleepUsesVTimerAndWFI(t *testing.T) {
	b, host, k := defaultEnv(t)
	vmI, _ := k.CreateVM(96 << 20)
	vm := vmI.(*VM)
	v0, _ := vm.CreateVCPU(0)
	g, err := NewGuestOS(vm, 96<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v0.StartThread(0); err != nil {
		t.Fatal(err)
	}
	if !b.Run(20_000_000, func() bool { return g.Booted() }) {
		t.Fatalf("no boot: %v", g.Err())
	}
	state := 0
	_, _ = g.Spawn("sleeper", 0, kernel.BodyFunc(func(kk *kernel.Kernel, p *kernel.Proc, c *arm.CPU) bool {
		switch state {
		case 0:
			state = 1
			kk.SyscallNanosleep(0, c, 3000)
			return false
		default:
			kk.PowerOff(c)
			return true
		}
	}))
	if !b.Run(100_000_000, func() bool { return host.LiveCount() == 0 }) {
		t.Fatalf("sleep run stalled: state=%d vcpu=%s", state, v0.State())
	}
	if vm.Stats.WFIExits == 0 {
		t.Fatal("guest idle must exit via WFI trap")
	}
	if vm.Stats.VTimerInjected == 0 {
		t.Fatal("the virtual timer must be injected by the highvisor (§3.6)")
	}
	if g.K.Stats.TimerIRQs == 0 {
		t.Fatal("guest must receive its timer interrupt")
	}
}

func TestConsoleOutput(t *testing.T) {
	b, host, k := defaultEnv(t)
	msg := "hello from the VM"
	a := isa.NewAsm(machine.RAMBase)
	a.MOV32(isa.R1, machine.UARTBase)
	for _, ch := range msg {
		a.MOVW(isa.R2, uint16(ch))
		a.STR(isa.R2, isa.R1, 0)
	}
	a.HVC(kernel.PSCISystemOff)
	vm, _ := isaGuest(t, k, a.MustAssemble(), 0)
	if !b.Run(10_000_000, func() bool { return host.LiveCount() == 0 }) {
		t.Fatal("no finish")
	}
	got := string(vm.Console)
	if got != msg {
		t.Fatalf("console = %q", got)
	}
	if !strings.Contains(got, "VM") {
		t.Fatal("sanity")
	}
}

func TestWorldSwitchCostShape(t *testing.T) {
	// Hypercall cost with VGIC must exceed the no-VGIC cost by roughly
	// the VGIC save/restore (Table 3: 5,326 vs 2,270 cycles).
	measure := func(hasVGIC bool) uint64 {
		cfg := machine.DefaultConfig()
		cfg.HasVGIC = hasVGIC
		cfg.HasVirtTimer = hasVGIC
		b, host, k := hostEnv(t, cfg)
		prog := isa.NewAsm(machine.RAMBase).
			HVC(1).
			HVC(kernel.PSCISystemOff).
			MustAssemble()
		_, v := isaGuest(t, k, prog, 0)
		_ = v
		c := b.CPUs[0]
		var before uint64
		var cost uint64
		for i := 0; i < 10_000_000; i++ {
			if k.stats.WorldSwitchIn == 1 && before == 0 {
				before = c.Clock
			}
			if k.stats.WorldSwitchIn == 2 && cost == 0 {
				cost = c.Clock - before
				break
			}
			if host.LiveCount() == 0 {
				break
			}
			if !b.Step() {
				break
			}
		}
		if cost == 0 {
			t.Fatalf("hypercall never measured (vgic=%v)", hasVGIC)
		}
		return cost
	}
	with := measure(true)
	without := measure(false)
	if with <= without {
		t.Fatalf("hypercall with VGIC (%d) must cost more than without (%d)", with, without)
	}
	ratio := float64(with) / float64(without)
	if ratio < 1.5 || ratio > 4.0 {
		t.Errorf("VGIC/no-VGIC hypercall ratio = %.2f (with=%d without=%d), want ~2.3x (Table 3)", ratio, with, without)
	}
}
