package kvmx86

import (
	"testing"

	"kvmarm/internal/arm"
	"kvmarm/internal/kernel"
	"kvmarm/internal/machine"
	"kvmarm/internal/x86"
)

func x86Env(t *testing.T, cpus int) (*machine.Board, *kernel.Kernel, *Hypervisor) {
	t.Helper()
	p := x86.Laptop()
	b, err := machine.New(machine.Config{CPUs: cpus, HasVirtTimer: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range b.CPUs {
		p.Apply(c)
		c.Secure = false
		// x86: no Hyp-mode boot dance; the kernel owns root mode.
		c.SetCPSR(uint32(arm.ModeHYP) | arm.PSRI | arm.PSRF)
	}
	host := kernel.New(kernel.Config{
		Name: "x86host", NumCPUs: cpus,
		CPU:       func(i int) *arm.CPU { return b.CPUs[i] },
		HW:        kernel.HWConfig{GICDistBase: machine.GICDistBase, GICCPUBase: machine.GICCPUBase},
		Mem:       b.RAM,
		AllocBase: machine.RAMBase + (64 << 20),
		AllocSize: 160 << 20,
	})
	if err := host.BootAll(); err != nil {
		t.Fatal(err)
	}
	hv, err := Init(b, host, p)
	if err != nil {
		t.Fatal(err)
	}
	return b, host, hv
}

func TestGuestBootsAndRuns(t *testing.T) {
	b, host, hv := x86Env(t, 2)
	vmI, err := hv.CreateVM(96 << 20)
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
	if !b.Run(30_000_000, func() bool { return g.Booted() }) {
		t.Fatalf("x86 guest did not boot: %v", g.Err())
	}
	if g.K.BootedInHyp {
		t.Fatal("guest must not think it owns root mode")
	}

	done := false
	_, _ = g.Spawn("work", 0, kernel.BodyFunc(func(kk *kernel.Kernel, p *kernel.Proc, c *arm.CPU) bool {
		kk.TouchUserPage(c, 0x0030_0000)
		kk.SyscallGetPID(0, c)
		done = true
		kk.PowerOff(c)
		return true
	}))
	if !b.Run(60_000_000, func() bool { return host.LiveCount() == 0 }) {
		t.Fatalf("x86 guest run stalled: done=%v state=%s", done, v0.State())
	}
	if !done {
		t.Fatal("guest process did not run")
	}
	if vm.Stats.Stage2Faults == 0 {
		t.Fatal("fresh guest pages must take EPT violations")
	}
	if hv.Stats.VMExits == 0 || hv.Stats.VMEntries == 0 {
		t.Fatal("no VM transitions recorded")
	}
}

func TestGuestTimerViaEmulation(t *testing.T) {
	b, host, hv := x86Env(t, 2)
	vmI, _ := hv.CreateVM(96 << 20)
	vm := vmI.(*VM)
	v0, _ := vm.CreateVCPU(0)
	g, _ := NewGuestOS(vm, 96<<20)
	v0.StartThread(0)
	if !b.Run(30_000_000, func() bool { return g.Booted() }) {
		t.Fatalf("no boot: %v", g.Err())
	}
	state := 0
	_, _ = g.Spawn("sleeper", 0, kernel.BodyFunc(func(kk *kernel.Kernel, p *kernel.Proc, c *arm.CPU) bool {
		if state == 0 {
			state = 1
			kk.SyscallNanosleep(0, c, 3000)
			return false
		}
		kk.PowerOff(c)
		return true
	}))
	if !b.Run(100_000_000, func() bool { return host.LiveCount() == 0 }) {
		t.Fatalf("x86 sleep stalled: state=%d vcpu=%s", state, v0.State())
	}
	if vm.Stats.SysRegTraps == 0 {
		t.Fatal("x86 guest timer programming must exit to root mode")
	}
	if g.K.Stats.TimerIRQs == 0 {
		t.Fatal("guest must receive its timer interrupt")
	}
	if vm.Stats.EOIExits == 0 {
		t.Fatal("every guest EOI must exit on (pre-APICv) x86")
	}
}

func TestEOICostStructure(t *testing.T) {
	// On x86 the guest's EOI costs a full exit (Table 3: ~2,000 cycles),
	// where ARM with a VGIC does it without trapping (~430 cycles).
	b, host, hv := x86Env(t, 2)
	vmI, _ := hv.CreateVM(96 << 20)
	vm := vmI.(*VM)
	v0, _ := vm.CreateVCPU(0)
	g, _ := NewGuestOS(vm, 96<<20)
	v0.StartThread(0)
	if !b.Run(30_000_000, func() bool { return g.Booted() }) {
		t.Fatalf("no boot: %v", g.Err())
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
	if !b.Run(100_000_000, func() bool { return host.LiveCount() == 0 }) {
		t.Fatal("stalled")
	}
	if hv.Stats.EOIExits == 0 {
		t.Fatal("EOI exits must be counted")
	}
	// Each EOI costs at least VMExit+VMEntry.
	minCost := hv.P.VMExit + hv.P.VMEntry
	if minCost < 1000 {
		t.Fatalf("profile sanity: %d", minCost)
	}
}

func TestIPIPathChargesHardwareIPI(t *testing.T) {
	b, host, hv := x86Env(t, 2)
	vmI, _ := hv.CreateVM(96 << 20)
	vm := vmI.(*VM)
	v0, _ := vm.CreateVCPU(0)
	v1, _ := vm.CreateVCPU(1)
	g, _ := NewGuestOS(vm, 96<<20)
	v0.StartThread(0)
	v1.StartThread(1)
	if !b.Run(60_000_000, func() bool { return g.Booted() }) {
		t.Fatalf("SMP x86 guest did not boot: %v", g.Err())
	}
	// Cross-vCPU pipe: wakeups send reschedule IPIs through the APIC.
	pipe := g.K.NewPipe()
	pipe.Cap = 8
	got := 0
	_, _ = g.Spawn("reader", 1, kernel.BodyFunc(func(kk *kernel.Kernel, p *kernel.Proc, c *arm.CPU) bool {
		if _, blocked := kk.SyscallPipeRead(1, c, pipe, 8); blocked {
			return false
		}
		got++
		return got >= 3
	}))
	wrote := 0
	_, _ = g.Spawn("writer", 0, kernel.BodyFunc(func(kk *kernel.Kernel, p *kernel.Proc, c *arm.CPU) bool {
		if wrote >= 3 {
			kk.PowerOff(c)
			return true
		}
		c.Charge(30_000)
		if _, blocked := kk.SyscallPipeWrite(0, c, pipe, 8); blocked {
			return false
		}
		wrote++
		return false
	}))
	if !b.Run(200_000_000, func() bool { return host.LiveCount() == 0 }) {
		t.Fatalf("SMP pipe stalled: wrote=%d got=%d v0=%s v1=%s", wrote, got, v0.State(), v1.State())
	}
	if vm.Stats.IPIsEmulated == 0 {
		t.Fatal("cross-vCPU wakeups must emulate IPIs through the APIC")
	}
}
