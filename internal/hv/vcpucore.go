package hv

import (
	"fmt"

	"kvmarm/internal/arm"
	"kvmarm/internal/fault"
	"kvmarm/internal/gic"
	"kvmarm/internal/kernel"
	"kvmarm/internal/timer"
	"kvmarm/internal/trace"
)

// RunState is a vCPU's position in the run loop all backends share.
type RunState int

const (
	// VCPUReady: the vCPU thread enters the guest at its next step.
	VCPUReady RunState = iota
	// VCPURunning: loaded on a physical CPU, executing guest code.
	VCPURunning
	// VCPUBlocked: the guest executed its idle instruction (WFI/HLT); the
	// thread sleeps on the host wait queue until a virtual interrupt.
	VCPUBlocked
	// VCPUPaused: parked by user space (register access, migration).
	VCPUPaused
	// VCPUShutdown: the vCPU and its thread are finished.
	VCPUShutdown
)

// GuestRegs is the guest state every backend saves in the same shape: the
// register file the ONE_REG interface exposes, the virtual timer the
// device-state snapshot carries, and the guest's software context. A
// backend's world-switch context embeds it and adds what only its
// architecture moves (VGIC and VFP state, shadow ID registers).
type GuestRegs struct {
	// GP is the 38-register general-purpose set.
	GP arm.GPSnapshot
	// CP15 holds the context-switched control registers, indexed in
	// arm.CtxControlRegs order.
	CP15 [arm.NumCtxControlRegs]uint32
	// VTimer is the virtual timer state (2 control registers + CNTVOFF).
	VTimer timer.VirtState

	// PL1Software is the guest's kernel-mode software: installed as the
	// CPU's PL1 handler while the VM runs. Swapping it is what "switching
	// the world" means for the parts of the VM that run in kernel mode.
	PL1Software arm.ExcHandler
	// Runner is the guest's execution content (a guest kernel scheduler
	// or a bare SARM32 interpreter).
	Runner arm.Runner
}

// BackendVCPU is what a backend's vCPU type — which embeds VCPUCore —
// supplies to the kit: the hv.VCPU surface, nearly all of it promoted from
// the core, plus guest entry.
type BackendVCPU interface {
	VCPU
	// EnterGuest is the backend half of ioctl(KVM_RUN), on host CPU c:
	// the user→kernel transition and the world switch in. The CPU then
	// runs the guest; the thread resumes when an exit unwinds to it.
	EnterGuest(c *arm.CPU)
}

// VCPUCore is the vCPU part of the kit: the run-state machine with its
// pause/park/block protocol, the host thread, exit statistics and the
// ONE_REG binding. A backend vCPU embeds it.
type VCPUCore struct {
	ID    int
	Stats VCPUStats

	vm   *VMCore
	self BackendVCPU
	regs *GuestRegs

	state RunState
	phys  int
	wq    *kernel.WaitQueue
	proc  *kernel.Proc

	// insnMark is the physical CPU's retired-instruction count at the
	// last world-switch in; the switch out accumulates the delta into
	// Stats.GuestInsns (per-vCPU architectural progress).
	insnMark uint64

	// pauseReq asks the run loop to park the vCPU at its next exit
	// (user-space pause for register access / migration).
	pauseReq bool
}

// InitVCPU makes v the VM's next vCPU (they must be created in order).
// self is the backend vCPU embedding v; regs its saved guest state.
func (vm *VMCore) InitVCPU(v *VCPUCore, self BackendVCPU, regs *GuestRegs, id int) error {
	if id != len(vm.vcpus) {
		return fmt.Errorf("hv: vCPUs must be created in order")
	}
	if id >= gic.MaxCPUs {
		// The interrupt models route by one-byte CPU masks, as GICv2
		// does (KVM's vgic-v2 has the same limit).
		return fmt.Errorf("hv: at most %d vCPUs per VM", gic.MaxCPUs)
	}
	*v = VCPUCore{ID: id, vm: vm, self: self, regs: regs, phys: -1,
		wq: kernel.NewWaitQueue(fmt.Sprintf("vcpu%d.%d", vm.VMID, id))}
	vm.vcpus = append(vm.vcpus, v)
	vm.hv.Trace.RegisterVCPU(vm.VMID, id)
	return nil
}

// VCPUID is the vCPU index within its VM.
func (v *VCPUCore) VCPUID() int { return v.ID }

// PhysCPU is the physical CPU currently executing this vCPU (-1 if none).
func (v *VCPUCore) PhysCPU() int { return v.phys }

// Blocked reports whether the vCPU thread is parked in WFI/HLT.
func (v *VCPUCore) Blocked() bool { return v.state == VCPUBlocked }

// State reports the vCPU's run state (for tests and the harness).
func (v *VCPUCore) State() string {
	switch v.state {
	case VCPUReady:
		return "ready"
	case VCPURunning:
		return "running"
	case VCPUBlocked:
		return v.vm.IdleState
	case VCPUPaused:
		return "paused"
	case VCPUShutdown:
		return "shutdown"
	}
	return "?"
}

// ExitStats copies out the per-vCPU entry/exit counters, merging in the
// host scheduler's accounting for the vCPU's thread (steal time and
// preemptions — the overcommit fairness measures).
func (v *VCPUCore) ExitStats() VCPUStats {
	st := v.Stats
	if p := v.proc; p != nil {
		st.StealTicks = p.RunDelayTicks
		st.Preemptions = p.Preemptions
		st.SchedSlices = p.SchedSlices
	}
	return st
}

// SetGuestSoftware installs the guest's kernel-mode software context: the
// PL1 exception handler and the execution runner the world switch loads.
func (v *VCPUCore) SetGuestSoftware(h arm.ExcHandler, r arm.Runner) {
	v.regs.PL1Software, v.regs.Runner = h, r
}

// Pause asks the vCPU to stop at its next exit, kicking it out of the
// guest if it is currently running (the user-space pause used for
// debugging and migration, §4).
func (v *VCPUCore) Pause() {
	b := v.vm.hv
	if b.Fault.Stuck(fault.PtVCPUPark) {
		// Injected stuck-vCPU fault: the park request is lost and the
		// vCPU keeps running. The migration park-watchdog must notice.
		return
	}
	v.pauseReq = true
	if v.phys >= 0 && v.phys != b.Board.Current {
		_ = b.Board.GIC.SendSGI(b.Board.Current, 1<<uint(v.phys), 2)
	}
	if v.state == VCPUReady || v.state == VCPUBlocked {
		v.state = VCPUPaused
	}
}

// Paused reports whether the vCPU is parked.
func (v *VCPUCore) Paused() bool { return v.state == VCPUPaused }

// Resume lets a paused vCPU run again.
func (v *VCPUCore) Resume() {
	v.pauseReq = false
	if v.state == VCPUPaused {
		v.state = VCPUReady
		v.vm.hv.Host.Wake(v.vm.hv.Board.Current, v.wq)
	}
}

// Shutdown marks the vCPU (and its thread) as finished.
func (v *VCPUCore) Shutdown() { v.state = VCPUShutdown }

// Wake unblocks a WFI/HLT-blocked vCPU (virtual interrupt arrived). May
// be called from interrupt context on any host CPU.
func (v *VCPUCore) Wake(fromHostCPU int) {
	if v.state == VCPUBlocked {
		v.state = VCPUReady
		v.vm.hv.Host.Wake(fromHostCPU, v.wq)
	}
}

// --- The world switch's and exit handler's view of the state machine ---

// Loaded records that a world switch in put the vCPU on physical CPU c.
func (v *VCPUCore) Loaded(c *arm.CPU) {
	v.phys = c.ID
	v.insnMark = c.Insns
	v.state = VCPURunning
	v.vm.lastCPU = c
}

// Unloaded records that a world switch out took the vCPU off c.
func (v *VCPUCore) Unloaded(c *arm.CPU) {
	v.phys = -1
	v.Stats.GuestInsns += c.Insns - v.insnMark
}

// ExitTo leaves an exit the vCPU thread must finish (a physical interrupt,
// the idle instruction) in state s. A pause posted while the vCPU was
// loaded wins over s, or user space waits on a vCPU that is already parked
// under the wrong state.
func (v *VCPUCore) ExitTo(s RunState) {
	if v.pauseReq {
		s = VCPUPaused
	}
	v.state = s
}

// ParkBeforeReentry is the check an exit handled in the kernel makes
// before re-entering the guest: if user space asked for a pause, the vCPU
// parks with its state saved and the caller must not re-enter.
func (v *VCPUCore) ParkBeforeReentry() bool {
	if v.pauseReq {
		v.state = VCPUPaused
	}
	return v.pauseReq
}

// RegionAccess performs a guest access of size bytes at ipa by vCPU v,
// executing on c, against its VM's registered MMIO regions. It charges
// userCost — and counts a user-space exit — for a QEMU-emulated region,
// kernelCost for an in-kernel one, and returns the value read (zero for a
// write). An address no region backs reads as zero and ignores writes
// (matches KVM's treatment of stray accesses well enough for a model).
//
// ok is false when the handler reported a device error: the access is
// delivered as a bus error. The guests here have no abort recovery, so the
// vCPU is shut down on the spot — the fleet supervisor's re-fork is the
// recovery story — and the caller must neither advance PC nor re-enter.
func (v *VCPUCore) RegionAccess(c *arm.CPU, ipa uint64, write bool, size int, wval, userCost, kernelCost uint64) (rval uint64, ok bool) {
	vm := v.vm
	r, off := vm.mmio.Find(ipa)
	if r == nil {
		return 0, true
	}
	if r.User {
		vm.Stats.MMIOUserExits++
		c.Charge(userCost)
	} else {
		c.Charge(kernelCost)
	}
	var err error
	if write {
		err = MMIOWrite(r.H, v.self, off, size, wval)
	} else {
		rval, err = MMIORead(r.H, v.self, off, size)
	}
	if err != nil {
		vm.Stats.BusErrors++
		if t := vm.hv.Trace; t != nil {
			t.Emit(trace.Event{Kind: trace.EvGuestBusError, VM: vm.VMID,
				VCPU: int16(v.ID), CPU: int16(c.ID), PC: v.regs.GP.PC, Arg: ipa})
		}
		v.Shutdown()
		return 0, false
	}
	return rval, true
}

// --- The vCPU thread ---

// StartThread creates the host process (the "QEMU vCPU thread") that runs
// this vCPU, pinned to hostCPU (-1 for any). A pin beyond the board's CPU
// count wraps modulo — overcommit placement may hand out more vCPU
// threads than physical CPUs and the host scheduler time-slices them.
// The thread loops on the KVM_RUN ioctl.
func (v *VCPUCore) StartThread(hostCPU int) (*kernel.Proc, error) {
	b := v.vm.hv
	if n := len(b.Board.CPUs); hostCPU >= n {
		hostCPU %= n
	}
	body := kernel.BodyFunc(func(_ *kernel.Kernel, _ *kernel.Proc, c *arm.CPU) bool {
		return v.runStep(hostCPU, c)
	})
	from := hostCPU
	if from < 0 {
		from = 0
	}
	proc, err := b.Host.NewProcFrom(from, fmt.Sprintf("qemu-vcpu%d.%d", v.vm.VMID, v.ID), hostCPU, body)
	if err != nil {
		return nil, err
	}
	v.proc = proc
	b.vcpuProcs[proc] = v
	return proc, nil
}

// runStep is one iteration of the vCPU thread. It reports true when the
// thread is done.
func (v *VCPUCore) runStep(hostCPU int, c *arm.CPU) bool {
	if hostCPU < 0 {
		hostCPU = c.ID
	}
	switch v.state {
	case VCPUShutdown:
		return true
	case VCPUPaused:
		v.vm.hv.Host.Block(hostCPU, v.wq)
		return false
	case VCPUBlocked:
		// An interrupt can be pending without having woken the thread: it
		// was flushed to the hardware just before the guest went idle and
		// the exit parked it inside the saved controller state.
		if !v.vm.ic.PendingIRQ(v.ID) {
			// Sleep on the host wait queue; virtual interrupt injection
			// wakes it (§3.6 for the timer case).
			v.vm.hv.Host.Block(hostCPU, v.wq)
			return false
		}
		v.state = VCPUReady
	case VCPURunning:
		// Already in the guest (should not happen from the thread).
		return false
	}
	v.self.EnterGuest(c)
	return false
}

// --- ONE_REG ---
//
// The user-space register save/restore interface of §4 ("user space save
// and restore of registers, a feature useful for both debugging and VM
// migration"), bound to the vCPU's saved state with the not-while-running
// rule.

// GetOneReg reads one guest register (KVM_GET_ONE_REG). The vCPU must not
// be running.
func (v *VCPUCore) GetOneReg(id RegID) (uint32, error) {
	if v.state == VCPURunning {
		return 0, fmt.Errorf("hv: vCPU %d is running", v.ID)
	}
	return GetReg(RegFile{GP: &v.regs.GP, CP15: &v.regs.CP15}, id)
}

// SetOneReg writes one guest register (KVM_SET_ONE_REG).
func (v *VCPUCore) SetOneReg(id RegID, val uint32) error {
	if v.state == VCPURunning {
		return fmt.Errorf("hv: vCPU %d is running", v.ID)
	}
	return SetReg(RegFile{GP: &v.regs.GP, CP15: &v.regs.CP15}, id, val)
}
