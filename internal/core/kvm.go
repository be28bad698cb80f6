package core

import (
	"kvmarm/internal/arm"
	"kvmarm/internal/gic"
	"kvmarm/internal/hv"
	"kvmarm/internal/isa"
	"kvmarm/internal/kernel"
	"kvmarm/internal/machine"
	"kvmarm/internal/trace"
)

// KVM is one hypervisor of the family: the KVM subsystem of the host
// kernel. Board/host wiring, the tracer and fault plane, the VM list and
// VMID allocation are the embedded kit base.
type KVM struct {
	hv.Base

	ws   WorldSwitch
	high *Highvisor

	// loaded tracks which vCPU each physical CPU is running.
	loaded []*VCPU
	// hostVFP parks the host's floating-point state per physical CPU
	// while a guest owns the FPU (the lazy VFP switch).
	hostVFP []arm.VFP
	stats   Stats

	// LazyVGIC enables the optimisation of §3.5 (skip list-register
	// save/restore when no virtual interrupts are in flight). The
	// "initial unoptimized version" of the paper context-switches all
	// VGIC state on every world switch; benchmarks flip this for the
	// ablation.
	LazyVGIC bool

	// UserTransitionCycles is the host kernel→user→kernel round trip for
	// QEMU-emulated MMIO (the difference between I/O User and I/O Kernel
	// in Table 3).
	UserTransitionCycles uint64
	// QEMUWorkCycles is the user-space device emulation work per exit.
	QEMUWorkCycles uint64

	// Blocks is the decoded basic-block cache shared by every vCPU on
	// this board, keyed by physical address. SetGuestSoftware wraps guest
	// interpreters in a block-dispatch runner backed by it; pass an
	// Interp with SingleStep set to opt a guest out.
	Blocks *isa.BlockCache
}

// WorldSwitch is what split mode and VHE do differently (§6): how the
// host kernel enters a guest, and how a guest trap gets back to it.
// Everything on either side of it is the family's shared code.
type WorldSwitch interface {
	// Install runs once, from New on the kit base: it installs
	// (*KVM).HypTrap as every CPU's Hyp trap handler.
	Install(k *KVM) error
	// Enter switches c from the host kernel into v's guest.
	Enter(c *arm.CPU, v *VCPU)
	// Exit switches c from v's guest, which has just trapped, back to
	// the host kernel.
	Exit(c *arm.CPU, v *VCPU)
	// HostCall handles a Hyp trap taken while no guest is loaded.
	HostCall(c *arm.CPU, e *arm.Exception)
}

// AttachTracer wires t into every layer of the hypervisor: what the kit
// base covers (the world switch and exit handling emit through it; GIC,
// timers, TLBs) plus the block cache.
func (k *KVM) AttachTracer(t *trace.Tracer) {
	k.Base.AttachTracer(t)
	k.Blocks.Trace = t
}

// Counters exposes the hypervisor-level statistics under stable names.
func (k *KVM) Counters() map[string]uint64 {
	s := k.stats
	out := map[string]uint64{
		"world_switch_in":      s.WorldSwitchIn,
		"world_switch_out":     s.WorldSwitchOut,
		"guest_traps":          s.GuestTraps,
		"host_calls":           s.HostCalls,
		"vfp_lazy_switches":    s.VFPLazySwitches,
		"vgic_save_skipped":    s.VGICSaveSkipped,
		"vgic_restore_skipped": s.VGICRestoreSkipped,
	}
	if k.Blocks != nil {
		out["block_hits"] = k.Blocks.Stats.Hits
		out["block_misses"] = k.Blocks.Stats.Misses
		out["block_invals"] = k.Blocks.Stats.Invals
	}
	return out
}

// Init brings split-mode KVM/ARM up on a booted host kernel, per the
// paper's boot protocol: it fails cleanly when the kernel was not entered
// in Hyp mode.
func Init(b *machine.Board, host *kernel.Kernel) (*KVM, error) {
	return New(b, host, &lowvisor{})
}

// New brings a member of the family up on a booted host kernel, entering
// and leaving guests through ws.
func New(b *machine.Board, host *kernel.Kernel, ws WorldSwitch) (*KVM, error) {
	k := &KVM{ws: ws, loaded: make([]*VCPU, len(b.CPUs)), hostVFP: make([]arm.VFP, len(b.CPUs)),
		UserTransitionCycles: 3000, QEMUWorkCycles: 1400}
	k.Base.Init(b, host)
	k.high = &Highvisor{kvm: k}
	if err := ws.Install(k); err != nil {
		return nil, err
	}
	// Decoded basic-block cache: every RAM mutation reports through
	// mem.OnWrite (self-modifying code, DMA, host writes), and every
	// CPU's TLB shootdown reaches it via MMU.Code.
	k.Blocks = isa.NewBlockCache(b.RAM)
	k.Code = k.Blocks
	b.RAM.OnWrite = k.Blocks.OnWrite
	for _, c := range b.CPUs {
		c.MMU.Code = k.Blocks
	}
	// The VGIC maintenance interrupt tells the hypervisor that a guest
	// completed a level-triggered virtual interrupt.
	if b.Cfg.HasVGIC {
		host.RegisterIRQ(gic.IRQMaintenance, func(_ *kernel.Kernel, cpu int) {
			b.GIC.ClearMaintenance(cpu)
		})
	}
	// The §6 direct-VIPI hardware routes guest SGI writes straight into
	// the issuing VM's virtual distributor, no exit taken.
	if b.Cfg.HasDirectVIPI && b.VSGI != nil {
		b.VSGI.Deliver = func(cpu int, mask uint8, id int) {
			if v := k.loaded[cpu]; v != nil {
				v.vm.VDist.SendSGIFrom(v, mask, id)
			}
		}
	}
	// Enable the virtual-timer PPI on the physical GIC: an expiring guest
	// timer raises a *hardware* interrupt that must force an exit so the
	// hypervisor can inject the virtual interrupt (§3.6 — "the virtual
	// timers cannot directly raise virtual interrupts, but always raise
	// hardware interrupts, which trap to the hypervisor").
	for cpu := range b.CPUs {
		if err := b.GIC.EnableIRQ(cpu, gic.IRQVirtTimer); err != nil {
			return nil, err
		}
	}
	return k, nil
}

// LoadedVCPU reports the vCPU running on physical CPU id, if any.
func (k *KVM) LoadedVCPU(cpuID int) *VCPU { return k.loaded[cpuID] }

// VM is one virtual machine: the kit's VM core (Stage-2 table and guest
// memory, devices, dirty log, fault resolution, device save/restore) plus
// the virtual distributor.
type VM struct {
	hv.VMCore
	kvm   *KVM
	VDist *hv.VDist
}

// CreateVM builds a VM with memBytes of guest RAM at the canonical base.
func (k *KVM) CreateVM(memBytes uint64) (hv.VM, error) {
	vm := &VM{kvm: k}
	vm.IdleState = "wfi"
	if err := k.InitVM(&vm.VMCore, memBytes); err != nil {
		return nil, err
	}
	vm.VDist = hv.NewVDist(k.Board, vm.VMID, &vm.Stats, k.Tracer)
	if err := hv.MapVGIC(k.Board, vm.Mem.Table); err != nil {
		return nil, err
	}
	// Virtio block and network are emulated in QEMU (user space); the
	// console UART too. Completions raise virtual SPIs through the
	// virtual distributor.
	if err := vm.BringUp(vm, vm.VDist); err != nil {
		return nil, err
	}
	return vm, nil
}

// VCPU is one virtual CPU: the kit's vCPU core (run-state machine, host
// thread, ONE_REG) plus the world-switch context.
type VCPU struct {
	hv.VCPUCore
	vm  *VM
	Ctx GuestContext

	// vtimer soft-timer bookkeeping while the vCPU is out of the CPU.
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

// SetGuestSoftware installs the guest's kernel-mode software context: the
// PL1 exception handler and the execution runner the world switch loads.
// A guest Interp is wrapped in the board's block-dispatch runner unless it
// opted out with SingleStep; other runner types pass through unchanged.
func (v *VCPU) SetGuestSoftware(h arm.ExcHandler, r arm.Runner) {
	if it, ok := r.(*isa.Interp); ok && !it.SingleStep {
		r = &isa.BlockRunner{It: it, Cache: v.vm.kvm.Blocks}
	}
	v.VCPUCore.SetGuestSoftware(h, r)
}

// EnterGuest is the backend half of ioctl(KVM_RUN): the user → kernel
// transition, then the world switch in — in split mode an HVC into the
// lowvisor (the double trap's first half), under VHE a function call.
// Exits that need user space are handled inline with QEMU costs charged.
func (v *VCPU) EnterGuest(c *arm.CPU) {
	k := v.vm.kvm
	prev := c.CPSR
	c.Charge(c.Cost.TrapToPL1 + k.Host.Cost.SyscallWork/2)
	c.SetCPSR(uint32(arm.ModeSVC) | (prev &^ arm.PSRModeMask))
	v.Stats.Entries++
	k.ws.Enter(c, v)
}

// Interface conformance (compile-time).
var (
	_ hv.Hypervisor  = (*KVM)(nil)
	_ hv.VM          = (*VM)(nil)
	_ hv.BackendVCPU = (*VCPU)(nil)
	_ hv.GuestOS     = (*GuestOS)(nil)
)
