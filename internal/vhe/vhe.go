// Package vhe models KVM on ARMv8.1 with the Virtualization Host
// Extensions (VHE, the E2H bit) — the §6 counterfactual of the paper: "the
// cost of split-mode virtualization is an artifact of the ARMv7 register
// banking; hardware that lets the kernel run in Hyp mode removes it".
//
// With E2H set, EL1 system-register accesses from the host kernel are
// redirected to their EL2 counterparts, so an unmodified kernel executes
// at the hypervisor privilege level. The consequences this package models,
// each the disappearance of a split-mode cost:
//
//   - No lowvisor/highvisor split: the exit handler IS the host kernel.
//     kvm_call_hyp becomes a plain function call — entering a guest costs
//     no HVC, and no exit takes a double trap (VM → EL2 → kernel becomes
//     VM → kernel-at-EL2).
//   - No Hyp stub and no dedicated Hyp page table: the kernel owns EL2
//     from boot; its own page tables serve the hypervisor (TTBR1_EL2
//     exists under E2H).
//   - The world switch moves only guest-visible state: the host's EL1
//     context lives in EL2 registers the guest cannot touch, so entry
//     loads the guest's 26 context registers without first spilling the
//     host's (half of the paper's Table 1 "Context Switch" traffic), and
//     the full 38-register trap frame shrinks to the callee-saved set of
//     a function call.
//
// What stays: Stage-2 faults, MMIO emulation, the virtual distributor
// (shared hv.VDist), virtual-timer multiplexing, and lazy VFP — those
// costs are architectural, not artifacts of the split.
//
// The simulation runs the host kernel in SVC mode as every other backend
// does; SVC here stands in for "EL2 with E2H redirection" — the point of
// VHE is precisely that the kernel is unchanged.
package vhe

import (
	"fmt"

	"kvmarm/internal/arm"
	"kvmarm/internal/gic"
	"kvmarm/internal/hv"
	"kvmarm/internal/isa"
	"kvmarm/internal/kernel"
	"kvmarm/internal/machine"
	"kvmarm/internal/trace"
)

// Stats instruments the hypervisor, under the same names as the split-mode
// backend so the stat cross-check and kvmarm-stat treat both uniformly.
// HostCalls stays zero by construction: with VHE there is no kvm_call_hyp.
type Stats struct {
	WorldSwitchIn      uint64
	WorldSwitchOut     uint64
	GuestTraps         uint64
	HostCalls          uint64
	VFPLazySwitches    uint64
	VGICSaveSkipped    uint64
	VGICRestoreSkipped uint64
}

// Hypervisor is KVM with VHE: one component, running entirely in the host
// kernel at EL2. Board/host wiring, the tracer and fault plane, the VM list
// and VMID allocation are the embedded kit base.
type Hypervisor struct {
	hv.Base

	// loaded tracks which vCPU each physical CPU is running.
	loaded []*VCPU
	// hostCtx parks the host's callee-saved state per physical CPU during
	// guest execution.
	hostCtx []hostContext

	// LazyVGIC skips list-register save/restore when no virtual
	// interrupts are in flight (§3.5). Default on: the optimisation
	// predates VHE-era KVM.
	LazyVGIC bool

	// UserTransitionCycles / QEMUWorkCycles: kernel→user→kernel round
	// trip plus device-emulation work for QEMU-routed MMIO (unchanged by
	// VHE — Table 3's "I/O User" gap is a Linux property, not a mode one).
	UserTransitionCycles uint64
	QEMUWorkCycles       uint64

	Stats Stats

	// Blocks is the decoded basic-block cache shared by every vCPU (blocks
	// are keyed by physical address, so one cache serves all VMs). The
	// Stage-2 tables and physical RAM notify it on every event that can
	// invalidate decoded code.
	Blocks *isa.BlockCache
}

// hostContext is the host state parked during guest execution. The GP
// snapshot and CP15 block are full copies (the simulated CPU has one
// physical register file), but the world switch charges only the
// callee-saved subset and the one-directional CP15 load — see switch.go.
type hostContext struct {
	GP          arm.GPSnapshot
	CP15        [arm.NumCtxControlRegs]uint32
	CPSR        uint32
	PL1Software arm.ExcHandler
	Runner      arm.Runner
	VFP         arm.VFP
}

// Init brings KVM/VHE up on a booted host kernel. The kernel must have
// been entered in Hyp mode — under VHE it *stays* there; there is no stub
// round-trip and no Hyp page table to build, so installing the exit
// handler is a plain register write on each CPU.
func Init(b *machine.Board, host *kernel.Kernel) (*Hypervisor, error) {
	if !host.HypStubInstalled {
		return nil, fmt.Errorf("vhe: kernel did not boot in Hyp mode; KVM disabled")
	}
	if !b.Cfg.HasVGIC || !b.Cfg.HasVirtTimer {
		return nil, fmt.Errorf("vhe: ARMv8.1 hardware implies a VGIC and virtual timers")
	}
	x := &Hypervisor{
		loaded:               make([]*VCPU, len(b.CPUs)),
		hostCtx:              make([]hostContext, len(b.CPUs)),
		LazyVGIC:             true,
		UserTransitionCycles: 3000,
		QEMUWorkCycles:       1400,
	}
	x.Base.Init(b, host)
	x.Blocks = isa.NewBlockCache(b.RAM)
	x.Code = x.Blocks
	b.RAM.OnWrite = x.Blocks.OnWrite
	for _, c := range b.CPUs {
		c.HypHandler = x.vheExit
		c.MMU.Code = x.Blocks
	}
	// The VGIC maintenance interrupt tells the hypervisor that a guest
	// completed a level-triggered virtual interrupt.
	host.RegisterIRQ(gic.IRQMaintenance, func(_ *kernel.Kernel, cpu int) {
		b.GIC.ClearMaintenance(cpu)
	})
	// The §6 direct-VIPI hardware routes guest SGI writes straight into
	// the issuing VM's virtual distributor, no exit taken.
	if b.Cfg.HasDirectVIPI && b.VSGI != nil {
		b.VSGI.Deliver = func(cpu int, mask uint8, id int) {
			if v := x.loaded[cpu]; v != nil {
				v.vm.VDist.SendSGIFrom(v, mask, id)
			}
		}
	}
	// An expiring guest virtual timer raises a hardware interrupt that
	// must force an exit so the hypervisor can inject the virtual one.
	for cpu := range b.CPUs {
		if err := b.GIC.EnableIRQ(cpu, gic.IRQVirtTimer); err != nil {
			return nil, err
		}
	}
	return x, nil
}

// AttachTracer wires t into every layer: what the kit base covers (world
// switch and exit classification emit through it; GIC, timers, TLBs) plus
// the block cache.
func (x *Hypervisor) AttachTracer(t *trace.Tracer) {
	x.Base.AttachTracer(t)
	x.Blocks.Trace = t
}

// Counters exposes the hypervisor-level statistics under the same stable
// names as the split-mode ARM backend (the cross-check keys on them).
func (x *Hypervisor) Counters() map[string]uint64 {
	s := x.Stats
	m := map[string]uint64{
		"world_switch_in":      s.WorldSwitchIn,
		"world_switch_out":     s.WorldSwitchOut,
		"guest_traps":          s.GuestTraps,
		"host_calls":           s.HostCalls,
		"vfp_lazy_switches":    s.VFPLazySwitches,
		"vgic_save_skipped":    s.VGICSaveSkipped,
		"vgic_restore_skipped": s.VGICRestoreSkipped,
	}
	if x.Blocks != nil {
		m["block_hits"] = x.Blocks.Stats.Hits
		m["block_misses"] = x.Blocks.Stats.Misses
		m["block_invals"] = x.Blocks.Stats.Invals
	}
	return m
}

// LoadedVCPU reports the vCPU running on physical CPU id, if any.
func (x *Hypervisor) LoadedVCPU(cpuID int) *VCPU { return x.loaded[cpuID] }

// GuestContext is the per-vCPU state the world switch moves — the same
// shape as the split-mode backend's, because the *guest-visible* state is
// identical; what VHE changes is how much HOST state moves with it.
type GuestContext struct {
	hv.GuestRegs
	VPIDR  uint32
	VMPIDR uint32
	VGIC   gic.VGICCpu
	VFP    arm.VFP
	Dirty  bool
}

// Reg reads GP register n from the saved context (banked by saved mode).
func (g *GuestContext) Reg(n int) uint32 { return hv.BankedReg(&g.GP, n) }

// SetReg writes GP register n in the saved context.
func (g *GuestContext) SetReg(n int, v uint32) { hv.SetBankedReg(&g.GP, n, v) }

// VM is one virtual machine: the kit's VM core plus the virtual
// distributor. Under VHE the Stage-2 table is still a separate table —
// two-dimensional paging is architecture, not split.
type VM struct {
	hv.VMCore
	kvm   *Hypervisor
	VDist *hv.VDist
}

// CreateVM builds a VM with memBytes of guest RAM at the canonical base.
func (x *Hypervisor) CreateVM(memBytes uint64) (hv.VM, error) {
	vm := &VM{kvm: x}
	vm.IdleState = "wfi"
	if err := x.InitVM(&vm.VMCore, memBytes); err != nil {
		return nil, err
	}
	vm.VDist = hv.NewVDist(x.Board, vm.VMID, &vm.Stats, x.Tracer)
	if err := hv.MapVGIC(x.Board, vm.Mem.Table); err != nil {
		return nil, err
	}
	if err := vm.BringUp(vm, vm.VDist); err != nil {
		return nil, err
	}
	return vm, nil
}

// VCPU is one virtual CPU: the kit's vCPU core plus the world-switch
// context.
type VCPU struct {
	hv.VCPUCore
	vm  *VM
	Ctx GuestContext

	softTimerID  uint64
	softTimerCPU int
}

// CreateVCPU adds a vCPU to the VM.
func (vm *VM) CreateVCPU(id int) (hv.VCPU, error) {
	v := &VCPU{vm: vm}
	if err := vm.InitVCPU(&v.VCPUCore, v, &v.Ctx.GuestRegs, id); err != nil {
		return nil, err
	}
	v.Ctx.GP.CPSR = uint32(arm.ModeSVC) | arm.PSRI | arm.PSRF | arm.PSRA
	v.Ctx.VPIDR = vm.kvm.Board.CPUs[0].CP15.Regs[arm.SysMIDR]
	v.Ctx.VMPIDR = 0x8000_0000 | uint32(id)
	vm.VDist.AddVCPU(v, &v.Ctx.VGIC)
	return v, nil
}

// SetGuestSoftware installs the guest's kernel-mode software context.
// An *isa.Interp runner is wrapped in the block-dispatch runner backed by
// the hypervisor-wide decoded-block cache unless the interpreter opts out
// with SingleStep; other runner types pass through unchanged.
func (v *VCPU) SetGuestSoftware(h arm.ExcHandler, r arm.Runner) {
	if it, ok := r.(*isa.Interp); ok && !it.SingleStep {
		r = &isa.BlockRunner{It: it, Cache: v.vm.kvm.Blocks}
	}
	v.VCPUCore.SetGuestSoftware(h, r)
}

// EnterGuest is the backend half of ioctl(KVM_RUN): the user → kernel
// transition only, no second trap. The contrast with the split-mode
// backend is the last line — entering the guest is a direct function call
// into the world switch, not an HVC into a lowvisor (kvm_call_hyp under
// E2H "is just a function call").
func (v *VCPU) EnterGuest(c *arm.CPU) {
	x := v.vm.kvm
	prev := c.CPSR
	c.Charge(c.Cost.TrapToPL1 + x.Host.Cost.SyscallWork/2)
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
	_ hv.VDistVCPU   = (*VCPU)(nil)
)
