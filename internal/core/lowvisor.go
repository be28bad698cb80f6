package core

import (
	"fmt"

	"kvmarm/internal/arm"
	"kvmarm/internal/gic"
	"kvmarm/internal/mmu"
	"kvmarm/internal/trace"
)

// HVC immediates for host→lowvisor calls (the "kvm_call_hyp" interface).
const (
	HVCInstallVectors uint16 = 0xE00
	HVCEnterGuest     uint16 = 0xE01
)

// Stats instruments the world switch and the Hyp trap entry.
type Stats struct {
	WorldSwitchIn      uint64
	WorldSwitchOut     uint64
	GuestTraps         uint64
	HostCalls          uint64
	VFPLazySwitches    uint64
	VGICSaveSkipped    uint64
	VGICRestoreSkipped uint64
}

// lowvisor is split mode's world switch, the Hyp-mode component: the only
// code that touches Hyp configuration state, kept to an absolute minimum
// (§3.1; 718 LOC in the original, Table 4). This file is all of it: the
// Hyp trap entry and the guest-side world-switch steps the VHE member
// shares run in Hyp mode here too.
type lowvisor struct {
	kvm *KVM

	// hypPT is the Hyp-mode page table: Hyp format, built by the
	// highvisor, mapping lowvisor code and shared data at the same
	// virtual addresses as in the kernel (§3.1).
	hypPT *mmu.Builder

	// host holds the parked host context per physical CPU.
	host []HostContext
	// pendingEnter passes the vCPU argument of an HVCEnterGuest call.
	pendingEnter []*VCPU
}

// Install builds the Hyp page tables and installs the lowvisor's vectors
// via the boot stub (§4: KVM re-enters Hyp mode through the hook the
// kernel installed when it detected a Hyp-mode boot).
func (lv *lowvisor) Install(k *KVM) error {
	host := k.Host
	if !host.HypStubInstalled {
		return fmt.Errorf("core: kernel did not boot in Hyp mode; KVM disabled")
	}
	lv.kvm = k
	lv.host = make([]HostContext, len(k.Board.CPUs))
	lv.pendingEnter = make([]*VCPU, len(k.Board.CPUs))
	// The Hyp table cannot reuse the kernel's tables (different format,
	// §3.1): build a dedicated Hyp-format table mapping the hypervisor
	// region identity (code + shared data at identical VAs).
	pt, err := mmu.NewBuilder(mmu.TableHyp, k.Board.RAM, host.Alloc)
	if err != nil {
		return err
	}
	// Map "lowvisor text + shared data": the first 16 MiB of the host
	// allocator arena, and the GIC window for VGIC access.
	if err := pt.MapRange(uint32(host.Alloc.Limit()-host.Alloc.Size()), host.Alloc.Limit()-host.Alloc.Size(), 16<<20, mmu.MapFlags{W: true}); err != nil {
		return err
	}
	if err := pt.MapRange(0x2C00_0000, 0x2C00_0000, 0x0040_0000, mmu.MapFlags{W: true, XN: true}); err != nil {
		return err
	}
	lv.hypPT = pt

	// Per CPU: HVC into the stub, which hands control to KVM's installer.
	host.OnHypStub = func(c *arm.CPU, e *arm.Exception) {
		// Running in Hyp mode now: install the real vectors and the Hyp
		// memory configuration.
		c.CP15.Regs[arm.SysHVBAR] = hypVectorBase
		c.CP15.Write64(arm.SysHTTBRLo, pt.Root)
		c.CP15.Regs[arm.SysHSCTLR] |= arm.SCTLRM
		c.HypHandler = k.HypTrap
		c.Charge(c.Cost.SysRegMove * 4)
		c.ERET()
	}
	for _, c := range k.Board.CPUs {
		c.TakeException(&arm.Exception{Kind: arm.ExcHVC, Imm: HVCInstallVectors,
			HSR: arm.MakeHSR(arm.ECHVC, uint32(HVCInstallVectors))})
		if c.HypHandler == nil {
			return fmt.Errorf("core: hyp vector installation failed on cpu %d", c.ID)
		}
	}
	host.OnHypStub = nil
	return nil
}

// hypVectorBase is the symbolic Hyp vector address (inside the hyp-mapped
// region).
const hypVectorBase = 0x2000_0000

// Enter is the host-kernel side of entering a VM: stash the argument and
// HVC into Hyp mode (first half of the double trap).
func (lv *lowvisor) Enter(c *arm.CPU, v *VCPU) {
	lv.pendingEnter[c.ID] = v
	c.TakeException(&arm.Exception{Kind: arm.ExcHVC, Imm: HVCEnterGuest,
		HSR: arm.MakeHSR(arm.ECHVC, uint32(HVCEnterGuest))})
}

// HostCall handles HVCs from the host kernel.
func (lv *lowvisor) HostCall(c *arm.CPU, e *arm.Exception) {
	if e.Imm != HVCEnterGuest {
		c.ERET()
		return
	}
	v := lv.pendingEnter[c.ID]
	lv.pendingEnter[c.ID] = nil
	lv.worldSwitchIn(c, v)
}

// HypTrap is the family's trap handler: the single entry point for
// everything that arrives in Hyp mode — host hypercalls, guest traps, and
// physical interrupts taken while a VM runs. In split mode it is the
// lowvisor's vector; under VHE it is the host kernel's own EL2 entry.
func (k *KVM) HypTrap(c *arm.CPU, e *arm.Exception) {
	v := k.loaded[c.ID]
	if v == nil {
		k.stats.HostCalls++
		k.ws.HostCall(c, e)
		return
	}
	k.stats.GuestTraps++

	// Lazy VFP switch: handled entirely at trap level, no world switch
	// (world-switch step 6 configured HCPTR to trap FP).
	if e.Kind == arm.ExcHypTrap && arm.HSREC(e.HSR) == arm.ECVFP {
		start := c.Clock
		k.stats.VFPLazySwitches++
		k.hostVFP[c.ID] = c.VFP.Snapshot()
		c.VFP.Restore(v.Ctx.VFP)
		c.VFP.Enabled = true
		v.Ctx.Dirty = true
		c.CP15.Regs[arm.SysHCPTR] = 0
		c.Charge(uint64(arm.NumVFPDataRegs)*2*c.Cost.VFPRegMove + arm.NumVFPCtrlRegs*2*c.Cost.SysRegMove)
		if t := k.Trace; t != nil {
			t.Emit(trace.Event{Kind: trace.ExitVFP, VM: v.vm.VMID, VCPU: int16(v.ID),
				CPU: int16(c.ID), HSR: e.HSR, Cycles: c.Clock - start, Time: c.Clock})
		}
		c.ERET()
		return
	}

	// For MMIO aborts whose syndrome lacks the access description, load
	// the faulting instruction from guest memory NOW, while the guest's
	// Stage-1 state is still live (the software-decode path of §4).
	var insn uint32
	var insnValid bool
	if e.Kind == arm.ExcHypTrap && arm.HSREC(e.HSR) == arm.ECDataAbort {
		if isv, _, _, _ := arm.DecodeDataAbortISS(arm.HSRISS(e.HSR)); !isv {
			if w, err := c.ReadVM(c.Regs.ELRHyp(), 4); err == nil {
				insn, insnValid = uint32(w), true
			}
		}
	}

	start := c.Clock
	k.stats.WorldSwitchOut++
	k.ws.Exit(c, v)
	k.loaded[c.ID] = nil
	v.Unloaded(c)
	c.VIRQLine = false
	if t := k.Trace; t != nil {
		t.Emit(trace.Event{Kind: trace.EvWorldSwitchOut, VM: v.vm.VMID, VCPU: int16(v.ID),
			CPU: int16(c.ID), PC: v.Ctx.GP.PC, Cycles: c.Clock - start, Time: c.Clock})
	}
	k.high.handleExit(c, v, e, insn, insnValid)
}

// worldSwitchIn performs the ten steps of §3.2 entering a VM. The CPU is
// in Hyp mode (arrived by HVC from the host kernel).
func (lv *lowvisor) worldSwitchIn(c *arm.CPU, v *VCPU) {
	hc, start := &lv.host[c.ID], c.Clock

	// (1) Store all host GP registers on the Hyp stack.
	hc.GP = c.SaveGP()
	hc.CPSR = c.Regs.SPSRof(arm.ModeHYP) // host mode at trap time
	hc.PL1Software = c.PL1Handler
	hc.Runner = c.Runner
	c.Charge(uint64(arm.GPCount()) * c.Cost.RegSave)

	// (2) Configure the VGIC and (3) the timers for the VM.
	lv.kvm.LoadVGICAndTimer(c, v)

	// (4) Save all host-specific configuration registers onto the Hyp
	// stack; (5) load the VM's configuration registers.
	for i, r := range arm.CtxControlRegs() {
		hc.CP15[i] = c.CP15.Regs[r]
		c.CP15.Regs[r] = v.Ctx.CP15[i]
	}
	c.Charge(uint64(2*arm.NumCtxControlRegs) * c.Cost.SysRegMove)

	// (6)-(10) Trap configuration, shadow IDs, Stage-2, guest registers
	// and the jump into the VM.
	lv.kvm.LoadGuest(c, v, start)
}

// Exit performs the nine steps of §3.2 returning to the host. The CPU is
// in Hyp mode; the guest's PC/PSR are in ELR_hyp/SPSR_hyp.
func (lv *lowvisor) Exit(c *arm.CPU, v *VCPU) {
	hc := &lv.host[c.ID]

	// (1) Store all VM GP registers; (2) disable Stage-2 translation;
	// (3) stop trapping accesses.
	lv.kvm.SaveGuest(c, v)

	// (4) Save all VM-specific configuration registers; (5) load the
	// host's configuration registers.
	for i, r := range arm.CtxControlRegs() {
		v.Ctx.CP15[i] = c.CP15.Regs[r]
		c.CP15.Regs[r] = hc.CP15[i]
	}
	c.Charge(uint64(2*arm.NumCtxControlRegs) * c.Cost.SysRegMove)

	// (6) Configure the timers for the host; (7) save VM-specific VGIC
	// state; park a guest-owned FPU.
	lv.kvm.SaveTimerVGICAndVFP(c, v)

	// (8) Restore all host GP registers.
	c.RestoreGP(hc.GP)
	c.Charge(uint64(arm.GPCount()) * c.Cost.RegRestore)

	// (9) Trap into kernel mode (the host's).
	c.PL1Handler = hc.PL1Software
	c.Runner = hc.Runner
	c.SetCPSR(hc.CPSR)
	c.Charge(c.Cost.ERET)
}

// --- The guest-side world-switch steps ---
//
// Both members move the guest's state with the same steps at the same
// cost; they differ only in how they park and reload the host around them
// (§6). Split mode runs these in Hyp mode, VHE in the host kernel at EL2.

// LoadVGICAndTimer is world-switch-in steps (2) and (3).
func (k *KVM) LoadVGICAndTimer(c *arm.CPU, v *VCPU) {
	// (2) Configure the VGIC for the VM: restore the saved interface
	// state and flush software-pending interrupts into list registers.
	if k.Board.Cfg.HasVGIC {
		if !k.LazyVGIC || vgicStateLive(&v.Ctx.VGIC) || v.vm.VDist.HasPendingFor(v) {
			cost := k.Board.GIC.RestoreVGIC(c.ID, v.Ctx.VGIC)
			c.Charge(cost)
			k.Board.GIC.SetVGICEnabled(c.ID, true)
			c.Charge(gic.CPUIfaceAccessCycles)
			// Stage software-pending virtual interrupts into the list
			// registers ("uses this state whenever a VM is scheduled,
			// to program the list registers", §3.5).
			v.vm.VDist.FlushTo(v, c.ID)
		} else {
			k.stats.VGICRestoreSkipped++
		}
	}

	// (3) Configure the timers for the VM: restore the virtual timer and
	// offset; the physical timer stays with the hypervisor (CNTHCTL=0
	// denies PL1 access to it).
	k.high.vtimerOnEntry(c, v)
	c.CP15.Regs[arm.SysCNTHCTL] = 0
	c.Charge(3 * c.Cost.SysRegMove)
}

// LoadGuest is world-switch-in steps (6) to (10); start is the clock at
// which the world switch began.
func (k *KVM) LoadGuest(c *arm.CPU, v *VCPU, start uint64) {
	// (6) Configure Hyp mode to trap FP (lazy), interrupts, WFI/WFE,
	// SMC, sensitive configuration registers and debug registers.
	c.CP15.Regs[arm.SysHCR] = arm.HCRGuest
	if !v.Ctx.Dirty {
		c.CP15.Regs[arm.SysHCPTR] = arm.HCPTRTCP10 | arm.HCPTRTCP11
	}
	c.CP15.Regs[arm.SysHSTR] = arm.HSTRTTEE
	c.CP15.Regs[arm.SysHDCR] = arm.HDCRTDA
	c.Charge(4 * c.Cost.SysRegMove)

	// (7) Write VM-specific IDs into the shadow ID registers.
	c.CP15.Regs[arm.SysVPIDR] = v.Ctx.VPIDR
	c.CP15.Regs[arm.SysVMPIDR] = v.Ctx.VMPIDR
	c.Charge(2 * c.Cost.SysRegMove)

	// (8) Set the Stage-2 page table base register (VTTBR); enabling
	// Stage-2 is part of the HCR value installed in step 6.
	c.CP15.Write64(arm.SysVTTBRLo, v.vm.Mem.Table.Root|uint64(v.vm.VMID)<<48)
	c.Charge(c.Cost.SysRegMove)

	// (9) Restore all guest GP registers.
	c.RestoreGP(v.Ctx.GP)
	c.Charge(uint64(arm.GPCount()) * c.Cost.RegRestore)

	// (10) Trap into either user or kernel mode of the VM.
	c.PL1Handler = v.Ctx.PL1Software
	c.Runner = v.Ctx.Runner
	k.stats.WorldSwitchIn++
	k.loaded[c.ID] = v
	v.Loaded(c)
	c.SetCPSR(v.Ctx.GP.CPSR)
	c.Charge(c.Cost.ERET)

	// Software injection path for hardware without a VGIC: pending
	// virtual interrupts assert the virtual IRQ line by hand.
	if !k.Board.Cfg.HasVGIC {
		c.VIRQLine = v.vm.VDist.HasPendingFor(v)
	}

	if t := k.Trace; t != nil {
		t.Emit(trace.Event{Kind: trace.EvWorldSwitchIn, VM: v.vm.VMID, VCPU: int16(v.ID),
			CPU: int16(c.ID), PC: v.Ctx.GP.PC, Cycles: c.Clock - start, Time: c.Clock})
	}
}

func vgicStateLive(s *gic.VGICCpu) bool {
	for i := range s.LR {
		if s.LR[i].State != gic.LRInvalid {
			return true
		}
	}
	return false
}

// SaveGuest is world-switch-out steps (1) to (3).
func (k *KVM) SaveGuest(c *arm.CPU, v *VCPU) {
	// (1) Store all VM GP registers.
	gp := c.SaveGP()
	gp.PC = c.Regs.ELRHyp()
	gp.CPSR = c.Regs.SPSRof(arm.ModeHYP)
	v.Ctx.GP = gp
	c.Charge(uint64(arm.GPCount()) * c.Cost.RegSave)

	// (2) Disable Stage-2 translation; (3) stop trapping accesses.
	c.CP15.Regs[arm.SysHCR] = 0
	c.CP15.Regs[arm.SysHCPTR] = 0
	c.CP15.Regs[arm.SysHSTR] = 0
	c.CP15.Regs[arm.SysHDCR] = 0
	c.Charge(4 * c.Cost.SysRegMove)
}

// SaveTimerVGICAndVFP is world-switch-out steps (6) and (7), then the
// return of a guest-owned FPU to the host.
func (k *KVM) SaveTimerVGICAndVFP(c *arm.CPU, v *VCPU) {
	// (6) Configure the timers for the host: park the virtual timer
	// state; the highvisor decides whether to arm a software timer. On
	// hardware without virtual timers the context copy IS the emulated
	// timer and must not be overwritten from the (unused) hardware.
	if k.Board.Cfg.HasVirtTimer {
		v.Ctx.VTimer = k.Board.Timers.SaveVirt(c.ID)
		k.Board.Timers.DisableVirt(c.ID, c.Clock)
	}
	c.CP15.Regs[arm.SysCNTHCTL] = 3 // host PL1 regains the physical timer
	c.Charge(3 * c.Cost.SysRegMove)

	// (7) Save VM-specific VGIC state (including reading back the list
	// registers the guest may have ACKed/EOIed, §3.5).
	if k.Board.Cfg.HasVGIC {
		if !k.LazyVGIC || k.Board.GIC.PendingLRCount(c.ID) > 0 || vgicStateLive(&v.Ctx.VGIC) {
			st, cost := k.Board.GIC.SaveVGIC(c.ID)
			v.Ctx.VGIC = st
			c.Charge(cost)
			k.Board.GIC.SetVGICEnabled(c.ID, false)
			c.Charge(gic.CPUIfaceAccessCycles)
		} else {
			k.stats.VGICSaveSkipped++
			v.Ctx.VGIC = gic.VGICCpu{}
		}
		// Reconcile the virtual distributor with what the guest ACKed
		// and EOIed while it ran (the read-back requirement of §3.5).
		v.vm.VDist.SyncFrom(v, &v.Ctx.VGIC)
	}

	// Lazy VFP: if the guest took the FP trap this residency, its state
	// is live in the hardware; park it and restore the host's.
	if v.Ctx.Dirty {
		v.Ctx.VFP = c.VFP.Snapshot()
		c.VFP.Restore(k.hostVFP[c.ID])
		v.Ctx.Dirty = false
		c.Charge(uint64(arm.NumVFPDataRegs)*2*c.Cost.VFPRegMove + arm.NumVFPCtrlRegs*2*c.Cost.SysRegMove)
	}
}
