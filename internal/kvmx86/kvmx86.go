// Package kvmx86 implements the paper's comparison baseline: KVM on x86
// with Intel VT-x (§2 "Comparison with x86", §5). It provides the same
// VM/vCPU/guest-OS interface as internal/core — both backends implement
// the internal/hv interfaces — but with the x86 architecture's mechanics:
//
//   - No split mode: root mode is orthogonal to the protection rings, so
//     the exit handler IS the host kernel — a single (but expensive,
//     hardware-VMCS-saving) transition instead of ARM's cheap double trap.
//   - The world switch is one instruction: no software save/restore of
//     registers, no MMIO to interrupt-controller state.
//   - No virtual APIC (pre-APICv hardware, as in the paper): interrupt
//     injection happens on VM entry; the guest needs no ACK (IDT
//     vectoring) but every EOI exits to root mode; APIC MMIO requires
//     software instruction decode.
//   - TSC reads do not exit; APIC timer programming does.
//   - EPT: same two-dimensional walks as Stage-2 (shared MMU model).
package kvmx86

import (
	"kvmarm/internal/arm"
	"kvmarm/internal/hv"
	"kvmarm/internal/kernel"
	"kvmarm/internal/machine"
	"kvmarm/internal/x86"
)

// Stats instruments the hypervisor.
type Stats struct {
	VMExits    uint64
	VMEntries  uint64
	EOIExits   uint64
	IPIExits   uint64
	TimerExits uint64
}

// Hypervisor is KVM x86. Board/host wiring, the tracer and fault plane,
// the VM list and VMID (VPID) allocation are the embedded kit base.
type Hypervisor struct {
	hv.Base
	P x86.Profile

	loaded  []*VCPU
	hostCtx []hostSaved

	Stats Stats
}

type hostSaved struct {
	GP          arm.GPSnapshot
	CP15        [arm.NumCtxControlRegs]uint32
	CPSR        uint32
	PL1Software arm.ExcHandler
	Runner      arm.Runner
}

// Init creates the hypervisor on a booted host kernel. Unlike ARM, no
// special boot mode is required: the kernel already runs in root mode.
func Init(b *machine.Board, host *kernel.Kernel, p x86.Profile) (*Hypervisor, error) {
	x := &Hypervisor{
		P:       p,
		loaded:  make([]*VCPU, len(b.CPUs)),
		hostCtx: make([]hostSaved, len(b.CPUs)),
	}
	x.Base.Init(b, host)
	for _, c := range b.CPUs {
		c.HypHandler = x.vmExit
	}
	// The (emulated) guest timer is backed by the hardware timer; its
	// interrupt must force an exit so KVM can inject the guest's vector.
	for cpu := range b.CPUs {
		if err := b.GIC.EnableIRQ(cpu, 27); err != nil {
			return nil, err
		}
	}
	return x, nil
}

// Counters exposes the hypervisor-level statistics under stable names.
func (x *Hypervisor) Counters() map[string]uint64 {
	return map[string]uint64{
		"vm_entries":  x.Stats.VMEntries,
		"vm_exits":    x.Stats.VMExits,
		"eoi_exits":   x.Stats.EOIExits,
		"ipi_exits":   x.Stats.IPIExits,
		"timer_exits": x.Stats.TimerExits,
	}
}

// VM is one x86 virtual machine: the kit's VM core — whose second-stage
// table is the EPT here, the same two-dimensional walk model as ARM
// Stage-2 — plus the APIC.
type VM struct {
	hv.VMCore
	kvm   *Hypervisor
	APIC  *APIC
	vcpus []*VCPU
}

// CreateVM builds a VM with memBytes of guest RAM.
func (x *Hypervisor) CreateVM(memBytes uint64) (hv.VM, error) {
	vm := &VM{kvm: x}
	vm.IdleState = "hlt"
	if err := x.InitVM(&vm.VMCore, memBytes); err != nil {
		return nil, err
	}
	vm.APIC = newAPIC(vm)
	if err := vm.BringUp(vm, vm.APIC); err != nil {
		return nil, err
	}
	return vm, nil
}

// VCPU is one x86 virtual CPU: the kit's vCPU core plus the VMCS context.
type VCPU struct {
	hv.VCPUCore
	vm *VM
	// Ctx is the VMCS-held guest state: moved by hardware, so the world
	// switch charges a fixed cost rather than per-register moves.
	Ctx hv.GuestRegs

	softTimerID  uint64
	softTimerCPU int
}

// CreateVCPU adds a vCPU.
func (vm *VM) CreateVCPU(id int) (hv.VCPU, error) {
	v := &VCPU{vm: vm}
	if err := vm.InitVCPU(&v.VCPUCore, v, &v.Ctx, id); err != nil {
		return nil, err
	}
	v.Ctx.GP.CPSR = uint32(arm.ModeSVC) | arm.PSRI | arm.PSRF
	vm.vcpus = append(vm.vcpus, v)
	vm.APIC.addVCPU()
	return v, nil
}

// EnterGuest is the backend half of ioctl(KVM_RUN): the ring transition
// into the kernel, then VMRESUME.
func (v *VCPU) EnterGuest(c *arm.CPU) {
	x := v.vm.kvm
	prev := c.CPSR
	c.Charge(x.P.TrapToKernel + x.Host.Cost.SyscallWork/2)
	c.SetCPSR(uint32(arm.ModeSVC) | (prev &^ arm.PSRModeMask))
	v.Stats.Entries++
	x.enterGuest(c, v)
}

// Interface conformance (compile-time).
var (
	_ hv.Hypervisor  = (*Hypervisor)(nil)
	_ hv.VM          = (*VM)(nil)
	_ hv.BackendVCPU = (*VCPU)(nil)
	_ hv.GuestOS     = (*GuestOS)(nil)
)
