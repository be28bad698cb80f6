package hv

import (
	"fmt"

	"kvmarm/internal/arm"
	"kvmarm/internal/dev"
	"kvmarm/internal/fault"
	"kvmarm/internal/kernel"
	"kvmarm/internal/machine"
	"kvmarm/internal/timer"
)

// IntController is what a backend's interrupt controller (the ARM virtual
// distributor, the x86 APIC model) supplies to the kit. The kit calls it
// while saving and restoring device state, when a blocked vCPU thread
// decides whether to sleep, and when an emulated device completes — never
// on a per-exit path.
type IntController interface {
	// Family names the device-state family ("arm", "x86"); state saved
	// by one family only restores into the same one.
	Family() string
	// SaveIC serializes the controller with every vCPU paused, first
	// folding in whatever hardware-held state does not travel (ARM list
	// registers).
	SaveIC() *ICState
	// RestoreIC installs a saved controller state into the VM, whose
	// vCPUs exist but have not run, re-staging what the guest had
	// acknowledged.
	RestoreIC(st *ICState) error
	// PendingIRQ reports whether a virtual interrupt awaits vCPU id, in
	// software state or parked in saved hardware state.
	PendingIRQ(vcpu int) bool
	// InjectTimer delivers vCPU id's virtual-timer interrupt from host
	// CPU fromHostCPU, waking the vCPU if it is blocked.
	InjectTimer(fromHostCPU, vcpu int)
	// InjectSPI raises or lowers a device interrupt line: the emulated
	// devices' completion path.
	InjectSPI(irq int, level bool)
}

// VMCore is the VM part of the kit: the second-stage table and guest
// memory, MMIO regions, the standard devices, console and stats, and on
// top of them the backend-independent half of the hv.VM interface — the
// guest-memory pass-throughs, the dirty log with its TLB shootdowns, RAM
// fault resolution, registered-region MMIO dispatch, device save/restore
// and PSCI power-off. A backend VM embeds it.
type VMCore struct {
	// VMID tags the VM's TLB entries (the VPID on x86).
	VMID uint8
	// Mem is the guest-physical memory; Mem.Table is the second-stage
	// page table (Stage-2 or EPT — the same two-dimensional walk model).
	Mem GuestMem

	// Virtual devices (QEMU-side models; completions raise virtual
	// interrupts through the backend's controller).
	Net, Blk, Con *dev.Virt
	// Console collects virtual UART output.
	Console []byte

	Stats VMStats

	// IdleState is the name State() gives a vCPU blocked in the guest's
	// idle instruction: "wfi" or "hlt".
	IdleState string

	hv    *Base
	ic    IntController
	mmio  Regions
	vcpus []*VCPUCore

	// lastCPU is the physical CPU most recently executing this VM (set
	// on world switch in; the guest-physical I/O adapter falls back on it).
	lastCPU *arm.CPU
}

// BringUp finishes a VM InitVM started, once the backend has built its
// interrupt controller ic: it creates the default emulated devices,
// mirroring the host board's layout so the unmodified guest kernel
// discovers them at the same addresses and raising their interrupts
// through ic, and lists self — the backend VM embedding vm — among the
// hypervisor's VMs.
func (vm *VMCore) BringUp(self VM, ic IntController) error {
	b := vm.hv
	if err := b.Fault.Fail(fault.PtDevBringup); err != nil {
		return fmt.Errorf("hv: device bring-up for vm %d: %w", vm.VMID, err)
	}
	vm.ic = ic
	vm.Net, vm.Blk, vm.Con = standardDevices(b.Board, vm, ic.InjectSPI)
	vm.Net.Fault, vm.Blk.Fault, vm.Con.Fault = b.Fault, b.Fault, b.Fault
	b.vms = append(b.vms, self)
	return nil
}

// ID is the VMID (tags the VM's TLB entries).
func (vm *VMCore) ID() uint8 { return vm.VMID }

// GuestMemory exposes the slot bookkeeping and second-stage table for
// snapshot capture and copy-on-write fork.
func (vm *VMCore) GuestMemory() *GuestMem { return &vm.Mem }

// Device returns the VM's emulated virtio-style device of class, or nil.
func (vm *VMCore) Device(class dev.VirtClass) *dev.Virt {
	switch class {
	case dev.VirtNet:
		return vm.Net
	case dev.VirtBlock:
		return vm.Blk
	case dev.VirtConsole:
		return vm.Con
	}
	return nil
}

// ConsoleBytes returns the virtual UART output collected so far.
func (vm *VMCore) ConsoleBytes() []byte { return vm.Console }

// StatsSnapshot copies out the per-VM activity counters.
func (vm *VMCore) StatsSnapshot() VMStats { return vm.Stats }

// AddUserMMIO registers a QEMU-emulated region (I/O User path).
func (vm *VMCore) AddUserMMIO(base, size uint64, h MMIOHandler) {
	vm.mmio.Add(base, size, h, true)
}

// AddKernelMMIO registers an in-kernel emulated region (I/O Kernel path,
// like vhost).
func (vm *VMCore) AddKernelMMIO(base, size uint64, h MMIOHandler) {
	vm.mmio.Add(base, size, h, false)
}

// EnsureMapped populates the second-stage mapping for the page containing
// ipa (the host/QEMU touching guest memory faults it in just like the
// guest would) and returns the backing PA.
func (vm *VMCore) EnsureMapped(ipa uint64) (uint64, error) { return vm.Mem.EnsureMapped(ipa) }

// WriteGuestMem copies data into guest-physical memory, populating
// mappings as needed (QEMU loading a guest image).
func (vm *VMCore) WriteGuestMem(ipa uint64, data []byte) error { return vm.Mem.Write(ipa, data) }

// ReadGuestMem copies guest-physical memory out (QEMU inspecting a guest).
func (vm *VMCore) ReadGuestMem(ipa uint64, n int) ([]byte, error) { return vm.Mem.Read(ipa, n) }

// SetUserMemoryRegion adds a guest RAM slot.
func (vm *VMCore) SetUserMemoryRegion(ipaBase, size uint64) error {
	return vm.Mem.AddSlot(ipaBase, size)
}

// NumVCPUs is the number of vCPUs created so far.
func (vm *VMCore) NumVCPUs() int { return len(vm.vcpus) }

// VCPUs returns the VM's vCPUs in creation order.
func (vm *VMCore) VCPUs() []VCPU {
	out := make([]VCPU, len(vm.vcpus))
	for i, v := range vm.vcpus {
		out[i] = v.self
	}
	return out
}

// --- TLB maintenance ---
//
// These two are the only callers of the per-page and per-VMID TLB
// invalidates outside internal/mmu: every second-stage permission change
// funnels through them (see DESIGN.md, "TLB-maintenance contract").

// flushPage evicts any TLB entry caching a translation through ipa on
// every host CPU. Required after a single-page permission change, else a
// stale writable entry lets stores bypass the write-protect trap (or a
// stale read-only one keeps faulting).
func (vm *VMCore) flushPage(ipa uint64) {
	for _, c := range vm.hv.Board.CPUs {
		c.MMU.FlushS2Page(vm.VMID, ipa)
	}
}

// flushAll drops every cached translation for this VM on every host CPU,
// after a whole-table permission change.
func (vm *VMCore) flushAll() {
	for _, c := range vm.hv.Board.CPUs {
		c.MMU.FlushVMID(vm.VMID)
	}
}

// --- Dirty log (live-migration pre-copy) ---

// StartDirtyLog write-protects all mapped RAM pages and begins dirty
// tracking. The broad flush makes the protection visible to running vCPUs.
func (vm *VMCore) StartDirtyLog() (int, error) {
	n, err := vm.Mem.StartDirtyLog()
	if err != nil {
		return 0, err
	}
	vm.flushAll()
	return n, nil
}

// FetchDirtyLog drains and re-protects the dirty set; each re-protected
// page needs its TLB entries shot down or the next store won't fault.
func (vm *VMCore) FetchDirtyLog() ([]uint64, error) {
	pages, err := vm.Mem.FetchDirtyLog()
	if err != nil {
		return nil, err
	}
	for _, p := range pages {
		vm.flushPage(p)
	}
	return pages, nil
}

// StopDirtyLog restores write access everywhere and ends tracking.
func (vm *VMCore) StopDirtyLog() error {
	if err := vm.Mem.StopDirtyLog(); err != nil {
		return err
	}
	vm.flushAll()
	return nil
}

// MappedPages lists every mapped RAM-slot page (IPA page addresses).
func (vm *VMCore) MappedPages() ([]uint64, error) { return vm.Mem.MappedPages() }

// --- Guest faults ---

// ResolveRAMFault handles a guest second-stage fault on ipa, which the
// caller has checked lies in a RAM slot, on physical CPU c. In order:
//
//   - a write to a copy-on-write shared page (snapshot/fork) breaks the
//     sharing — private copy, or in-place reclaim for the last sharer.
//     This comes before the dirty log because a shared page is read-only
//     and so was never in the log's protected set;
//   - a write to a page the dirty log protected restores write access and
//     records the page. This comes before allocation, which would remap a
//     logged page to a blank frame;
//   - otherwise the page has no frame yet: get_user_pages + map.
//
// The first two change a live leaf's permissions, so the page's TLB
// entries are flushed on every CPU before the handling cost is charged.
// On success the faulting access retries after re-entry; on error nothing
// was charged and the caller shuts the vCPU down.
func (vm *VMCore) ResolveRAMFault(c *arm.CPU, ipa uint64) error {
	vm.Stats.Stage2Faults++
	s2, cost := vm.Mem.Table, &vm.hv.Host.Cost
	if s2.CowSharing() {
		if handled, err := vm.Mem.breakCow(ipa); err != nil {
			return err
		} else if handled {
			// Break = fault handling plus copying the page.
			c.Charge(cost.FaultWork/2 + cost.PageZero)
			return nil
		}
	}
	if s2.DirtyLogging() {
		if dirty, err := s2.DirtyFault(ipa); err != nil {
			return err
		} else if dirty {
			vm.flushPage(ipa)
			c.Charge(cost.FaultWork / 2)
			return nil
		}
	}
	if _, err := vm.Mem.allocMap(ipa); err != nil {
		return err
	}
	// get_user_pages + rmap + memslot bookkeeping, then the page itself.
	c.Charge(cost.FaultWork + cost.PageZero)
	return nil
}

// PowerOff is PSCI SYSTEM_OFF: every vCPU thread finishes, blocked ones
// being woken first so they get to notice.
func (vm *VMCore) PowerOff(fromHostCPU int) {
	for _, v := range vm.vcpus {
		v.Wake(fromHostCPU)
		v.Shutdown()
	}
}

// --- Device save/restore (live migration, snapshots) ---

// SaveDeviceState snapshots everything guest-visible that the ONE_REG
// vCPU snapshot does not cover. The VM must be paused.
func (vm *VMCore) SaveDeviceState() (*DeviceState, error) {
	if err := vm.hv.Fault.Fail(fault.PtDeviceSave); err != nil {
		return nil, err
	}
	st := &DeviceState{
		Family:  vm.ic.Family(),
		IC:      vm.ic.SaveIC(),
		Console: append([]byte(nil), vm.Console...),
		Virt:    make(map[dev.VirtClass]*dev.VirtState),
	}
	for _, d := range []*dev.Virt{vm.Net, vm.Blk, vm.Con} {
		st.Virt[d.Class] = d.SaveState()
	}
	now := vm.hv.Board.Now()
	for _, v := range vm.vcpus {
		vt := v.regs.VTimer
		st.VTimers = append(st.VTimers, VTimerState{
			CTL:  vt.CTL,
			CVAL: vt.CVAL,
			// The virtual count, not the offset: boards disagree on
			// absolute time, so the destination re-bases CNTVOFF.
			VCNT: timer.Count(now) - vt.CNTVOFF,
		})
	}
	return st, nil
}

// RestoreDeviceState installs a snapshot taken by SaveDeviceState,
// possibly on a different backend of the same family. vCPUs must already
// exist and be stopped.
func (vm *VMCore) RestoreDeviceState(st *DeviceState) error {
	if err := vm.hv.Fault.Fail(fault.PtDeviceRestore); err != nil {
		return err
	}
	if fam := vm.ic.Family(); st.Family != fam {
		return fmt.Errorf("hv: cannot restore %q device state into %s VM %d", st.Family, fam, vm.VMID)
	}
	if len(st.VTimers) != len(vm.vcpus) {
		return fmt.Errorf("hv: snapshot has %d vCPU timers, VM has %d vCPUs", len(st.VTimers), len(vm.vcpus))
	}
	if err := vm.ic.RestoreIC(st.IC); err != nil {
		return err
	}
	now := vm.hv.Board.Now()
	for i, v := range vm.vcpus {
		s := st.VTimers[i]
		v.regs.VTimer = timer.VirtState{
			CTL:  s.CTL,
			CVAL: s.CVAL,
			// Re-base so the virtual count continues from where the
			// source left it (mod-2^64 arithmetic handles wrap).
			CNTVOFF: timer.Count(now) - s.VCNT,
		}
		// A timer that fired on the source right at pause time may not
		// have injected its interrupt yet; deliver it here so the edge
		// is not lost across the move.
		if s.CTL&timer.CTLEnable != 0 && s.CTL&timer.CTLIMask == 0 && s.VCNT >= s.CVAL {
			v.regs.VTimer.CTL |= timer.CTLIMask
			vm.ic.InjectTimer(vm.hv.Board.Current, v.ID)
		}
	}
	vm.Console = append(vm.Console[:0], st.Console...)
	for class, s := range st.Virt {
		d := vm.Device(class)
		if d == nil {
			return fmt.Errorf("hv: snapshot has state for device class %d but destination lacks it", class)
		}
		d.RestoreState(s)
	}
	return nil
}

// --- Guest OS coupling ---

// BoardHW is the board's hardware map as a kernel sees it: the GIC, the
// UART and the three virtio devices with their interrupts. Hosts and
// guests boot against the same map.
func BoardHW() kernel.HWConfig {
	return kernel.HWConfig{
		GICDistBase: machine.GICDistBase,
		GICCPUBase:  machine.GICCPUBase,
		UARTBase:    machine.UARTBase,
		NetBase:     machine.VirtNetBase,
		BlkBase:     machine.VirtBlkBase,
		ConBase:     machine.VirtConBase,
		IRQNet:      machine.IRQNet,
		IRQBlk:      machine.IRQBlk,
		IRQCon:      machine.IRQCon,
	}
}

// GuestKernelConfig is the kernel.Config an unmodified minOS instance
// boots with inside this VM: devices at the board's addresses, and its
// "physical" memory reached through the second stage on whichever CPU is
// running the VM — so fresh pages take genuine second-stage faults. The
// backend adds what its interrupt architecture changes (trapped-EOI
// hooks, the direct-VIPI register) before kernel.New. The VM's vCPUs must
// already exist.
func (vm *VMCore) GuestKernelConfig(memBytes uint64) (kernel.Config, error) {
	if len(vm.vcpus) == 0 {
		return kernel.Config{}, fmt.Errorf("hv: create vCPUs before the guest OS")
	}
	board := vm.hv.Board
	phys := &GuestPhysIO{
		Label: fmt.Sprintf("VM %d", vm.VMID),
		Cur: func() *arm.CPU {
			for _, v := range vm.vcpus {
				if v.phys == board.Current {
					return board.CPUs[v.phys]
				}
			}
			return nil
		},
		Last: func() *arm.CPU { return vm.lastCPU },
	}
	return kernel.Config{
		Name:    fmt.Sprintf("guest-vm%d", vm.VMID),
		NumCPUs: len(vm.vcpus),
		CPU: func(i int) *arm.CPU {
			if p := vm.vcpus[i].phys; p >= 0 {
				return board.CPUs[p]
			}
			if vm.lastCPU != nil {
				return vm.lastCPU
			}
			return board.CPUs[0]
		},
		HW:        BoardHW(),
		Mem:       phys,
		AllocBase: machine.RAMBase + (8 << 20),
		AllocSize: memBytes - (16 << 20),
	}, nil
}
