package hv

import (
	"errors"

	"kvmarm/internal/dev"
	"kvmarm/internal/fault"
	"kvmarm/internal/kernel"
	"kvmarm/internal/machine"
	"kvmarm/internal/mmu"
	"kvmarm/internal/timer"
	"kvmarm/internal/trace"
)

// The backend kit: Base, VMCore and VCPUCore are the state and behaviour
// every backend shares — the counterpart of Linux's virt/kvm, which is why
// Table 4 charges KVM/ARM only its architecture-specific lines. A backend
// embeds the three types directly and supplies only what genuinely differs:
// world switch and guest entry, exit decode and trap classification, and
// its interrupt controller (the IntController hooks).

// ErrOutOfVMIDs reports that a hypervisor instance has handed out all 255
// VMIDs. VMID 0 is never allocated: it tags every non-virtualised host
// translation in the TLB.
var ErrOutOfVMIDs = errors.New("hv: out of VMIDs")

// Base is the hypervisor part of the kit: board/host/tracer/fault-plane
// wiring, the VM list and VMID allocation. A backend hypervisor embeds it,
// calls Init once, and builds VMs with InitVM + VMCore.BringUp.
type Base struct {
	Board *machine.Board
	Host  *kernel.Kernel

	// Trace is the unified exit/trap event sink (internal/trace). Nil by
	// default: every emit site pays a single nil-check branch when tracing
	// is off. Attach with AttachTracer.
	Trace *trace.Tracer

	// Fault is the fault-injection plane (internal/fault). Nil by default:
	// every consult site pays a single nil-check branch when injection is
	// off. Attach with AttachFaultPlane.
	Fault *fault.Plane

	// Code is the decoded-code cache every second-stage table notifies of
	// remaps and permission changes; nil on backends without one.
	Code mmu.CodeInvalidator

	vms      []VM
	nextVMID uint8

	// vcpuProcs maps host processes to the vCPUs they run, so the host
	// scheduler's switch/preempt hooks can attribute steal time to the
	// right VM/vCPU in the trace stream (overcommit observability).
	vcpuProcs map[*kernel.Proc]*VCPUCore
}

// Init wires the base to a booted host and installs the host-scheduler
// observability hooks: when the host multiplexes more vCPU threads than
// physical CPUs, per-vCPU steal time and preemptions surface through the
// trace stream (kvmarm-stat's scheduling section). Non-vCPU host processes
// are accounted on their Proc only.
func (b *Base) Init(board *machine.Board, host *kernel.Kernel) {
	b.Board, b.Host = board, host
	b.vcpuProcs = make(map[*kernel.Proc]*VCPUCore)
	host.OnSchedSwitch = func(cpu int, p *kernel.Proc, wait uint64) {
		v := b.vcpuProcs[p]
		if v == nil || wait == 0 || b.Trace == nil {
			return
		}
		b.Trace.Emit(trace.Event{Kind: trace.EvSchedSteal, VM: v.vm.VMID, VCPU: int16(v.ID),
			CPU: int16(cpu), Cycles: wait << timer.CycleShift, Time: board.CPUs[cpu].Clock})
	}
	host.OnSchedPreempt = func(cpu int, p *kernel.Proc) {
		v := b.vcpuProcs[p]
		if v == nil || b.Trace == nil {
			return
		}
		b.Trace.Emit(trace.Event{Kind: trace.EvSchedPreempt, VM: v.vm.VMID, VCPU: int16(v.ID),
			CPU: int16(cpu), Time: board.CPUs[cpu].Clock})
	}
}

// AttachTracer wires t into every shared layer: the GIC's traffic, the
// generic timers and each physical CPU's TLB, plus whatever emits through
// Base.Trace (world switches, exit classification). Existing VMs and vCPUs
// are registered for per-VM/per-vCPU counters; attach before creating VMs
// to capture boot-time exits too. Passing nil detaches. A backend with
// extra sinks (a block cache) wraps this and adds them.
func (b *Base) AttachTracer(t *trace.Tracer) {
	b.Trace = t
	b.Board.GIC.Trace = t
	if b.Board.Timers != nil {
		b.Board.Timers.Trace = t
	}
	for _, c := range b.Board.CPUs {
		c.MMU.Trace = t
	}
	for _, vm := range b.vms {
		t.RegisterVM(vm.ID())
		for _, v := range vm.VCPUs() {
			t.RegisterVCPU(vm.ID(), v.VCPUID())
		}
	}
}

// Tracer returns the attached tracer (nil when tracing is off).
func (b *Base) Tracer() *trace.Tracer { return b.Trace }

// AttachFaultPlane wires the fault-injection plane into every consult
// point: each VM's second-stage dirty-log operations, vCPU park requests,
// and device save/restore. Passing nil detaches.
func (b *Base) AttachFaultPlane(p *fault.Plane) {
	b.Fault = p
	for _, vm := range b.vms {
		vm.GuestMemory().Table.Fault = p
		for _, class := range []dev.VirtClass{dev.VirtNet, dev.VirtBlock, dev.VirtConsole} {
			if d := vm.Device(class); d != nil {
				d.Fault = p
			}
		}
	}
}

// FaultPlane returns the attached plane (nil when injection is off).
func (b *Base) FaultPlane() *fault.Plane { return b.Fault }

// VMs lists the created VMs.
func (b *Base) VMs() []VM { return append([]VM(nil), b.vms...) }

// InitVM allocates the next VMID and builds vm's backend-independent
// half: an empty second-stage table wired to the fault plane and the code
// cache, and guest memory with memBytes of RAM at the canonical base whose
// permission changes shoot down this VM's TLB entries on every board CPU.
// The backend then adds its own mappings, builds its interrupt controller
// and finishes with BringUp.
func (b *Base) InitVM(vm *VMCore, memBytes uint64) error {
	if b.nextVMID == ^uint8(0) {
		return ErrOutOfVMIDs
	}
	b.nextVMID++
	s2, err := mmu.NewBuilder(mmu.TableStage2, b.Board.RAM, b.Host.Alloc)
	if err != nil {
		return err
	}
	s2.Fault = b.Fault
	s2.Code = b.Code
	vm.hv, vm.VMID = b, b.nextVMID
	vm.Mem = GuestMem{Table: s2, Alloc: b.Host.Alloc, RAM: b.Board.RAM,
		FlushPage: vm.flushPage, FlushAll: vm.flushAll}
	if err := vm.Mem.AddSlot(machine.RAMBase, memBytes); err != nil {
		return err
	}
	b.Trace.RegisterVM(vm.VMID)
	return nil
}
