package kvmx86

import (
	"kvmarm/internal/arm"
	"kvmarm/internal/hv"
	"kvmarm/internal/kernel"
	"kvmarm/internal/trace"
)

// GuestOS couples a minOS instance to an x86 VM. The kernel is the same
// package the ARM stacks run; only the interrupt architecture hooks differ
// (IDT-style delivery with no ACK, EOI by trapped APIC write), exactly the
// x86/ARM contrast of §2. Boot sequencing and process spawning are the
// shared hv.GuestBoot machinery.
type GuestOS struct {
	hv.GuestBoot
	VM *VM
}

// NewGuestOS implements hv.VM.
func (vm *VM) NewGuestOS(memBytes uint64) (hv.GuestOS, error) {
	return NewGuestOS(vm, memBytes)
}

// NewGuestOS builds the guest kernel for vm.
func NewGuestOS(vm *VM, memBytes uint64) (*GuestOS, error) {
	cfg, err := vm.GuestKernelConfig(memBytes)
	if err != nil {
		return nil, err
	}
	x := vm.kvm
	// x86 interrupt architecture: vector via IDT (free), EOI exits to
	// root mode for APIC emulation.
	cfg.HW.AckHook = func(cpu int, c *arm.CPU) (int, int) {
		c.Charge(30)
		return vm.APIC.Ack(vm.vcpus[cpu])
	}
	cfg.HW.EOIHook = func(cpu int, c *arm.CPU, id int) {
		v := vm.vcpus[cpu]
		vm.Stats.EOIExits++
		x.Stats.EOIExits++
		// Full exit: VMCS save, decode, APIC emulation with locking,
		// VMRESUME.
		cost := x.P.VMExit + x.P.APICDecode + x.P.APICEmulate + x.P.VMEntry
		c.Charge(cost)
		vm.APIC.EOI(v, id)
		if phys := v.PhysCPU(); phys >= 0 {
			x.Board.CPUs[phys].VIRQLine = vm.APIC.hasPendingFor(v)
		}
		if t := x.Trace; t != nil {
			t.Emit(trace.Event{Kind: trace.ExitEOI, VM: vm.VMID, VCPU: int16(v.ID),
				CPU: int16(c.ID), Arg: uint64(id), Cycles: cost, Time: c.Clock})
		}
	}
	g := &GuestOS{VM: vm}
	g.Attach(kernel.New(cfg), x.Board, vm.VCPUs())
	return g, nil
}
