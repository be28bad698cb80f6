package core

import (
	"testing"

	"kvmarm/internal/arm"
	"kvmarm/internal/hv"
	"kvmarm/internal/isa"
	"kvmarm/internal/kernel"
	"kvmarm/internal/machine"
)

func TestSaveRestoreMovesGuestBetweenVMs(t *testing.T) {
	b, host, k := defaultEnv(t)
	prog := isa.NewAsm(machine.RAMBase).
		MOVW(isa.R0, 5).
		MOVW(isa.R5, 0).
		Label("loop").
		ADDI(isa.R5, isa.R5, 1).
		HVC(1).
		CMPI(isa.R5, 200).
		BNE("loop").
		ADDI(isa.R0, isa.R0, 100).
		HVC(kernel.PSCISystemOff).
		MustAssemble()
	_, v := isaGuest(t, k, prog, 0)

	// Run a couple of hypercalls in, then pause mid-loop.
	if !b.Run(5_000_000, func() bool { return v.vm.Stats.Hypercalls >= 2 }) {
		t.Fatal("no progress")
	}
	v.Pause()
	if !b.Run(5_000_000, v.Paused) {
		t.Fatal("did not pause")
	}
	regs, err := hv.SaveAllRegs(v)
	if err != nil {
		t.Fatal(err)
	}
	if v.Ctx.Reg(0) != 5 {
		t.Fatalf("paused r0 = %d", v.Ctx.Reg(0))
	}
	if v.Ctx.Reg(5) == 0 || v.Ctx.Reg(5) >= 200 {
		t.Fatalf("paused mid-loop expected, r5 = %d", v.Ctx.Reg(5))
	}

	// Restore into a second VM on the same host and finish there.
	vm2, _ := k.CreateVM(64 << 20)
	v2I, _ := vm2.CreateVCPU(0)
	v2 := v2I.(*VCPU)
	asm := progBytesOf(prog)
	if err := vm2.WriteGuestMem(machine.RAMBase, asm); err != nil {
		t.Fatal(err)
	}
	v2.SetGuestSoftware(nil, &isa.Interp{})
	if err := hv.RestoreAllRegs(v2, regs); err != nil {
		t.Fatal(err)
	}
	if _, err := v2.StartThread(1); err != nil {
		t.Fatal(err)
	}
	if !b.Run(10_000_000, func() bool { return v2.State() == "shutdown" }) {
		t.Fatalf("migrated guest did not finish: %s", v2.State())
	}
	if got := v2.Ctx.Reg(0); got != 105 {
		t.Fatalf("migrated guest r0 = %d, want 105 (resumed mid-program)", got)
	}
	_ = host
}

func progBytesOf(words []uint32) []byte {
	out := make([]byte, 0, len(words)*4)
	for _, w := range words {
		out = append(out, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	return out
}

func TestSMPGuestRunsProcsOnBothVCPUs(t *testing.T) {
	b, host, k := defaultEnv(t)
	vmI, _ := k.CreateVM(96 << 20)
	vm := vmI.(*VM)
	v0I, _ := vm.CreateVCPU(0)
	v0 := v0I.(*VCPU)
	v1I, _ := vm.CreateVCPU(1)
	v1 := v1I.(*VCPU)
	g, err := NewGuestOS(vm, 96<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v0.StartThread(0); err != nil {
		t.Fatal(err)
	}
	if _, err := v1.StartThread(1); err != nil {
		t.Fatal(err)
	}
	if !b.Run(60_000_000, g.Booted) {
		t.Fatalf("SMP guest did not boot: %v", g.Err())
	}
	ran := [2]int{}
	for cpu := 0; cpu < 2; cpu++ {
		cpu := cpu
		_, _ = g.Spawn("w", cpu, kernel.BodyFunc(func(kk *kernel.Kernel, p *kernel.Proc, c *arm.CPU) bool {
			ran[cpu]++
			c.Charge(10_000)
			return ran[cpu] >= 5
		}))
	}
	if !b.Run(100_000_000, func() bool { return ran[0] >= 5 && ran[1] >= 5 }) {
		t.Fatalf("SMP guest procs stalled: %v", ran)
	}
	// Both vCPUs must have executed guest work.
	if v0.Stats.Exits == 0 || v1.Stats.Exits == 0 {
		t.Fatalf("exits: %d/%d", v0.Stats.Exits, v1.Stats.Exits)
	}
	_ = host
}

func TestNoVGICGuestEndToEnd(t *testing.T) {
	cfg := machine.DefaultConfig()
	cfg.HasVGIC = false
	cfg.HasVirtTimer = false
	b, host, k := hostEnv(t, cfg)
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
	if !b.Run(60_000_000, g.Booted) {
		t.Fatalf("no-VGIC guest did not boot: %v", g.Err())
	}
	state := 0
	_, _ = g.Spawn("sleeper", 0, kernel.BodyFunc(func(kk *kernel.Kernel, p *kernel.Proc, c *arm.CPU) bool {
		if state == 0 {
			state = 1
			kk.SyscallNanosleep(0, c, 2000)
			return false
		}
		kk.PowerOff(c)
		return true
	}))
	if !b.Run(120_000_000, func() bool { return host.LiveCount() == 0 }) {
		t.Fatalf("no-VGIC sleep stalled: state=%d vcpu=%s", state, v0.State())
	}
	// Without vtimers every counter read and timer write is emulated in
	// user space; without a VGIC the guest's ACK/EOI round-trip through
	// QEMU as well.
	if vm.Stats.SysRegTraps == 0 {
		t.Error("no-vtimer guest must trap on timer accesses")
	}
	if vm.Stats.MMIOUserExits == 0 {
		t.Error("no-VGIC guest must take user-space interrupt-controller exits")
	}
	if g.K.Stats.TimerIRQs == 0 {
		t.Error("guest must still receive its (emulated) timer interrupt")
	}
}

func TestLazyVGICSkipsIdleSwitches(t *testing.T) {
	b, host, k := defaultEnv(t)
	k.LazyVGIC = true
	prog := isa.NewAsm(machine.RAMBase)
	for i := 0; i < 20; i++ {
		prog.HVC(1)
	}
	prog.HVC(kernel.PSCISystemOff)
	_, _ = isaGuest(t, k, prog.MustAssemble(), 0)
	if !b.Run(20_000_000, func() bool { return host.LiveCount() == 0 }) {
		t.Fatal("guest did not finish")
	}
	if k.stats.VGICSaveSkipped == 0 || k.stats.VGICRestoreSkipped == 0 {
		t.Fatalf("lazy VGIC never skipped: %+v", k.stats)
	}
}

func TestLazyVGICAblationReducesHypercallCost(t *testing.T) {
	measure := func(lazy bool) uint64 {
		b, host, k := defaultEnv(t)
		k.LazyVGIC = lazy
		prog := isa.NewAsm(machine.RAMBase)
		for i := 0; i < 32; i++ {
			prog.HVC(1)
		}
		prog.HVC(kernel.PSCISystemOff)
		_, _ = isaGuest(t, k, prog.MustAssemble(), 0)
		if !b.Run(20_000_000, func() bool { return host.LiveCount() == 0 }) {
			t.Fatal("guest did not finish")
		}
		return b.CPUs[0].Clock
	}
	eager := measure(false)
	lazy := measure(true)
	if lazy >= eager {
		t.Fatalf("lazy VGIC switching must be cheaper on an interrupt-free hypercall loop: eager=%d lazy=%d", eager, lazy)
	}
}

func TestGuestConsoleThroughQEMU(t *testing.T) {
	b, host, k := defaultEnv(t)
	vmI, _ := k.CreateVM(96 << 20)
	vm := vmI.(*VM)
	v0, _ := vm.CreateVCPU(0)
	g, _ := NewGuestOS(vm, 96<<20)
	_, _ = v0.StartThread(0)
	if !b.Run(60_000_000, g.Booted) {
		t.Fatalf("no boot: %v", g.Err())
	}
	_, _ = g.Spawn("printer", 0, kernel.BodyFunc(func(kk *kernel.Kernel, p *kernel.Proc, c *arm.CPU) bool {
		kk.ConsoleWrite(c, "ok")
		kk.PowerOff(c)
		return true
	}))
	if !b.Run(60_000_000, func() bool { return host.LiveCount() == 0 }) {
		t.Fatal("stalled")
	}
	if string(vm.Console) != "ok" {
		t.Fatalf("console = %q", string(vm.Console))
	}
	if vm.Stats.MMIOUserExits < 2 {
		t.Error("console writes are QEMU-emulated MMIO")
	}
}
