// Package hv defines the backend-neutral hypervisor interface the rest of
// the repository programs against. The paper's whole evaluation is a
// cross-architecture comparison — KVM/ARM's split-mode design
// (internal/core) against KVM x86 with VT-x (internal/kvmx86) — and both
// stacks expose the same conceptual objects: a hypervisor that creates
// VMs, VMs that own guest-physical memory, MMIO regions and virtual
// devices, and vCPUs that run on host threads. This package names those
// objects once, so the benchmark harness, the workloads, the facade and
// the CLIs drive every backend through one code path, and a further
// backend (a §6 "ideal hardware" model, a RISC-V-H-style model) only has
// to supply its world switch, exit decode and interrupt controller.
//
// Alongside the interfaces lives the backend kit — Base, VMCore and
// VCPUCore (base.go, vmcore.go, vcpucore.go) — which every backend embeds
// and which holds each shared mechanism once: VMID allocation and
// tracer/fault-plane wiring; the memory-slot bookkeeping and chunked
// guest-memory copies (GuestMem), second-stage fault resolution and the
// dirty log with their TLB shootdowns; MMIO region lookup and dispatch
// (Regions); the QEMU-side device shims (VirtMMIO, UARTMMIO) and device
// save/restore; the vCPU run-state machine and host thread; the
// guest-physical access adapter (GuestPhysIO), the ONE_REG register
// namespace (RegID, GetReg, SetReg), and the guest boot scaffolding
// (GuestBoot). The kit depends only on the architecture-generic
// substrate (arm, dev, kernel, machine, mmu, trace) — never on a backend.
package hv

import (
	"kvmarm/internal/arm"
	"kvmarm/internal/dev"
	"kvmarm/internal/fault"
	"kvmarm/internal/kernel"
	"kvmarm/internal/trace"
)

// Hypervisor is one hypervisor backend instance brought up on a booted
// host kernel (KVM/ARM's split-mode stack, the VT-x comparator, ...).
type Hypervisor interface {
	// CreateVM builds a VM with memBytes of guest RAM at the canonical
	// base address.
	CreateVM(memBytes uint64) (VM, error)
	// AttachTracer wires the unified exit/trap event sink into every
	// emit point of the backend (world switches, exit classification,
	// interrupt-controller and timer traffic). Attach before creating
	// VMs to capture boot-time exits; nil detaches.
	AttachTracer(t *trace.Tracer)
	// Tracer returns the currently attached tracer (nil when off).
	Tracer() *trace.Tracer
	// AttachFaultPlane wires the deterministic fault-injection plane
	// (internal/fault) into the backend's injection points: the Stage-2/
	// EPT dirty-log operations, vCPU park requests, and device
	// save/restore. Existing VMs are re-wired too; nil detaches. A
	// harness driving a migration attaches the same plane to the source
	// backend, the destination backend, and MigrateOptions.Fault.
	AttachFaultPlane(p *fault.Plane)
	// FaultPlane returns the currently attached plane (nil when off).
	FaultPlane() *fault.Plane
	// VMs lists the created VMs.
	VMs() []VM
	// Counters exposes the backend's hypervisor-level statistics under
	// stable snake_case names (ARM: world_switch_in/out and the lowvisor
	// counters; x86: vm_entries/vm_exits and the exit-reason counters).
	Counters() map[string]uint64
}

// VM is one virtual machine.
type VM interface {
	// ID is the VM identifier (the VMID/VPID tagging its TLB entries).
	ID() uint8
	// CreateVCPU adds vCPU number id; vCPUs must be created in order.
	CreateVCPU(id int) (VCPU, error)
	// VCPUs returns the VM's vCPUs in creation order.
	VCPUs() []VCPU
	// AddKernelMMIO registers an in-kernel emulated device region
	// (the I/O Kernel path, like vhost).
	AddKernelMMIO(base, size uint64, h MMIOHandler)
	// AddUserMMIO registers a QEMU-emulated region (the I/O User path).
	AddUserMMIO(base, size uint64, h MMIOHandler)
	// SetUserMemoryRegion adds a guest RAM slot
	// (KVM_SET_USER_MEMORY_REGION). Zero-sized and overlapping slots are
	// rejected.
	SetUserMemoryRegion(ipaBase, size uint64) error
	// EnsureMapped populates the second-stage mapping for the page
	// containing ipa and returns the backing host-physical address.
	EnsureMapped(ipa uint64) (uint64, error)
	// WriteGuestMem copies data into guest-physical memory, populating
	// mappings as needed (QEMU loading a guest image).
	WriteGuestMem(ipa uint64, data []byte) error
	// ReadGuestMem copies guest-physical memory out (QEMU inspecting a
	// guest, the migration source side).
	ReadGuestMem(ipa uint64, n int) ([]byte, error)
	// Device returns the VM's emulated virtio-style device of the given
	// class, or nil.
	Device(class dev.VirtClass) *dev.Virt
	// ConsoleBytes returns the virtual UART output collected so far.
	ConsoleBytes() []byte
	// StatsSnapshot copies out the per-VM activity counters.
	StatsSnapshot() VMStats
	// NewGuestOS couples an unmodified minOS instance to the VM (whose
	// vCPUs must already be created) and installs boot shims; start the
	// vCPU threads to boot it.
	NewGuestOS(memBytes uint64) (GuestOS, error)

	// Live migration hooks (internal/hv/migrate.go drives them).
	//
	// StartDirtyLog write-protects the mapped guest RAM pages, begins
	// recording pages the guest writes (Stage-2/EPT write faults), and
	// flushes stale TLB entries. It returns the number of protected
	// pages.
	StartDirtyLog() (int, error)
	// FetchDirtyLog drains the set of pages dirtied since the last call
	// (or since StartDirtyLog), re-protecting them for the next round.
	FetchDirtyLog() ([]uint64, error)
	// StopDirtyLog ends dirty logging and restores write access.
	StopDirtyLog() error
	// MappedPages lists the guest RAM pages that currently have backing
	// frames — the full-copy transfer set.
	MappedPages() ([]uint64, error)
	// SaveDeviceState serializes the VM's device-side state — interrupt
	// controller, per-vCPU virtual timers, console, virtio devices with
	// their in-flight I/O — with every vCPU paused.
	SaveDeviceState() (*DeviceState, error)
	// RestoreDeviceState installs a saved device state into this VM,
	// whose vCPUs must be created but not yet started.
	RestoreDeviceState(st *DeviceState) error

	// GuestMemory exposes the VM's slot bookkeeping and second-stage
	// table (the GuestMem inside every backend's VMCore). Snapshot
	// capture and copy-on-write fork (internal/hv/snapshot.go) drive the
	// freeze/adopt machinery through it; the kit wires the TLB-flush
	// callbacks so permission changes are globally visible.
	GuestMemory() *GuestMem
}

// VCPU is one virtual CPU.
type VCPU interface {
	// VCPUID is the vCPU index within its VM.
	VCPUID() int
	// State reports the run state: "ready", "running", "wfi"/"hlt",
	// "paused" or "shutdown".
	State() string
	// SetGuestSoftware installs the guest's kernel-mode software
	// context: the PL1 exception handler and the execution runner the
	// world switch loads.
	SetGuestSoftware(h arm.ExcHandler, r arm.Runner)
	// StartThread creates the host process (the "QEMU vCPU thread")
	// that runs this vCPU, pinned to hostCPU (-1 for any).
	StartThread(hostCPU int) (*kernel.Proc, error)
	// Pause asks the vCPU to stop at its next exit, kicking it out of
	// the guest if it is running (user-space pause for register access
	// and migration, §4).
	Pause()
	// Resume lets a paused vCPU run again.
	Resume()
	// Paused reports whether the vCPU is parked.
	Paused() bool
	// Shutdown marks the vCPU (and its thread) as finished.
	Shutdown()
	// Wake unblocks a WFI/HLT-blocked vCPU (virtual interrupt arrived).
	Wake(fromHostCPU int)
	// GetOneReg reads one guest register (KVM_GET_ONE_REG). The vCPU
	// must not be running.
	GetOneReg(id RegID) (uint32, error)
	// SetOneReg writes one guest register (KVM_SET_ONE_REG).
	SetOneReg(id RegID, val uint32) error
	// ExitStats copies out the per-vCPU entry/exit counters.
	ExitStats() VCPUStats
}

// GuestOS is a minOS instance booted inside a VM.
type GuestOS interface {
	// Kernel returns the guest kernel.
	Kernel() *kernel.Kernel
	// Spawn creates a process inside the guest and kicks sleeping
	// vCPUs so their schedulers notice the new work.
	Spawn(name string, cpu int, body kernel.Body) (*kernel.Proc, error)
	// Booted reports whether every vCPU finished kernel bring-up.
	Booted() bool
	// Err returns a boot failure, if any.
	Err() error
}

// MMIOHandler emulates a device region for a VM.
type MMIOHandler interface {
	Name() string
	Read(v VCPU, off uint64, size int) uint64
	Write(v VCPU, off uint64, size int, val uint64)
}

// VMStats counts per-VM hypervisor activity. One struct serves both
// backends: Stage2Faults covers EPT violations on x86, VTimerInjected the
// hrtimer-backed APIC timer, and EOIExits is the x86-only trapped-EOI
// count (zero on ARM, where EOI runs through the VGIC without exits).
type VMStats struct {
	Stage2Faults   uint64
	MMIOExits      uint64
	MMIOUserExits  uint64
	MMIODecoded    uint64 // software instruction decode used
	SysRegTraps    uint64
	WFIExits       uint64
	IRQExits       uint64
	Hypercalls     uint64
	VTimerInjected uint64
	IPIsEmulated   uint64
	EOIExits       uint64
	// BusErrors counts injected device errors delivered to the guest as
	// data aborts (the chaos plane's PtDevMMIO faults).
	BusErrors uint64
}

// VCPUStats counts per-vCPU entries and exits, plus the host-scheduler
// accounting that matters under vCPU overcommit: retired guest
// instructions (the architectural progress measure the overcommit bench
// and oracle compare), steal time, and preemption counts for the vCPU's
// host thread.
type VCPUStats struct {
	Exits   uint64
	Entries uint64
	// GuestInsns counts guest instructions retired while this vCPU was
	// loaded on a physical CPU (accumulated at each world-switch out).
	GuestInsns uint64
	// StealTicks is counter ticks the vCPU thread spent runnable but
	// waiting for a host CPU (run delay / steal time).
	StealTicks uint64
	// Preemptions counts times the thread was forced off a host CPU
	// while still runnable; SchedSlices counts times it was switched on.
	Preemptions uint64
	SchedSlices uint64
}
