package vhe

import (
	"kvmarm/internal/arm"
	"kvmarm/internal/gic"
	"kvmarm/internal/hv"
	"kvmarm/internal/isa"
	"kvmarm/internal/kernel"
	"kvmarm/internal/machine"
	"kvmarm/internal/timer"
	"kvmarm/internal/trace"
)

// The VHE transition machinery. Compare with internal/core/lowvisor.go:
// the same guest-visible state moves, but the host side collapses —
// entry is a function call from the kernel (no HVC), the host spills only
// its callee-saved registers (a function-call frame, not a 38-register
// trap frame), and the host's EL1 context never moves because under E2H
// it lives in EL2 registers the guest cannot reach.

// hostCalleeSaved is the GP subset the HVC-free entry path spills: the
// AAPCS callee-saved registers of the enterGuest call (r4-r11, sp, lr and
// the frame bookkeeping), instead of the full arm.GPCount() trap frame.
const hostCalleeSaved = 12

// enterGuest is the VHE world switch in. The CPU is in host kernel mode;
// no trap is taken to get here.
func (x *Hypervisor) enterGuest(c *arm.CPU, v *VCPU) {
	hc := &x.hostCtx[c.ID]
	x.Stats.WorldSwitchIn++
	wsStart := c.Clock

	// Host state: callee-saved registers only. (The simulation snapshots
	// the full file because the CPU has one physical register set; the
	// charge models the architectural cost.)
	hc.GP = c.SaveGP()
	hc.CPSR = c.CPSR
	hc.PL1Software = c.PL1Handler
	hc.Runner = c.Runner
	c.Charge(hostCalleeSaved * c.Cost.RegSave)

	// VGIC: restore the saved interface state and flush software-pending
	// interrupts into list registers — unchanged from split mode (§3.5).
	if !x.LazyVGIC || vgicStateLive(&v.Ctx.VGIC) || v.vm.VDist.HasPendingFor(v) {
		cost := x.Board.GIC.RestoreVGIC(c.ID, v.Ctx.VGIC)
		c.Charge(cost)
		x.Board.GIC.SetVGICEnabled(c.ID, true)
		c.Charge(gic.CPUIfaceAccessCycles)
		v.vm.VDist.FlushTo(v, c.ID)
	} else {
		x.Stats.VGICRestoreSkipped++
	}

	// Timers: load the virtual timer; the physical timer stays with the
	// hypervisor (CNTHCTL under E2H).
	x.vtimerOnEntry(c, v)
	c.CP15.Regs[arm.SysCNTHCTL] = 0
	c.Charge(3 * c.Cost.SysRegMove)

	// Guest EL1 context: LOAD only. The host's values are parked in hc
	// for the simulation, but architecturally the host's EL1 accesses are
	// redirected to EL2 registers, so there is nothing to save first —
	// half the Table 1 "Context Switch" traffic disappears.
	for i, r := range arm.CtxControlRegs() {
		hc.CP15[i] = c.CP15.Regs[r]
		c.CP15.Regs[r] = v.Ctx.CP15[i]
	}
	c.Charge(uint64(arm.NumCtxControlRegs) * c.Cost.SysRegMove)

	// Trap configuration: clear TGE, trap FP (lazy), interrupts, WFI/WFE,
	// SMC, sensitive registers — identical bits to split mode.
	c.CP15.Regs[arm.SysHCR] = arm.HCRGuest
	if !v.Ctx.Dirty {
		c.CP15.Regs[arm.SysHCPTR] = arm.HCPTRTCP10 | arm.HCPTRTCP11
	}
	c.CP15.Regs[arm.SysHSTR] = arm.HSTRTTEE
	c.CP15.Regs[arm.SysHDCR] = arm.HDCRTDA
	c.Charge(4 * c.Cost.SysRegMove)

	// Shadow ID registers.
	c.CP15.Regs[arm.SysVPIDR] = v.Ctx.VPIDR
	c.CP15.Regs[arm.SysVMPIDR] = v.Ctx.VMPIDR
	c.Charge(2 * c.Cost.SysRegMove)

	// Stage-2 page table base.
	c.CP15.Write64(arm.SysVTTBRLo, v.vm.Mem.Table.Root|uint64(v.vm.VMID)<<48)
	c.Charge(c.Cost.SysRegMove)

	// Guest GP registers: the full trap frame, as in split mode — this
	// state is guest-visible and must move.
	c.RestoreGP(v.Ctx.GP)
	c.Charge(uint64(arm.GPCount()) * c.Cost.RegRestore)

	// Enter the VM.
	c.PL1Handler = v.Ctx.PL1Software
	c.Runner = v.Ctx.Runner
	x.loaded[c.ID] = v
	v.Loaded(c)
	c.SetCPSR(v.Ctx.GP.CPSR)
	c.Charge(c.Cost.ERET)

	if t := x.Trace; t != nil {
		t.Emit(trace.Event{Kind: trace.EvWorldSwitchIn, VM: v.vm.VMID, VCPU: int16(v.ID),
			CPU: int16(c.ID), PC: v.Ctx.GP.PC, Cycles: c.Clock - wsStart, Time: c.Clock})
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

// exitGuest is the VHE world switch out. The CPU trapped to EL2 — which
// IS the host kernel, so after parking the guest state the handler simply
// continues; no second trap to reach the exit logic, no ERET to return to
// the host.
func (x *Hypervisor) exitGuest(c *arm.CPU, v *VCPU) {
	hc := &x.hostCtx[c.ID]
	x.Stats.WorldSwitchOut++
	wsStart := c.Clock

	// Guest GP registers (full frame; guest-visible).
	gp := c.SaveGP()
	gp.PC = c.Regs.ELRHyp()
	gp.CPSR = c.Regs.SPSRof(arm.ModeHYP)
	v.Ctx.GP = gp
	c.Charge(uint64(arm.GPCount()) * c.Cost.RegSave)

	// Disable Stage-2, stop trapping (set TGE back).
	c.CP15.Regs[arm.SysHCR] = 0
	c.CP15.Regs[arm.SysHCPTR] = 0
	c.CP15.Regs[arm.SysHSTR] = 0
	c.CP15.Regs[arm.SysHDCR] = 0
	c.Charge(4 * c.Cost.SysRegMove)

	// Guest EL1 context: SAVE only — the host's EL1 state never left its
	// EL2 registers.
	for i, r := range arm.CtxControlRegs() {
		v.Ctx.CP15[i] = c.CP15.Regs[r]
		c.CP15.Regs[r] = hc.CP15[i]
	}
	c.Charge(uint64(arm.NumCtxControlRegs) * c.Cost.SysRegMove)

	// Park the virtual timer; host regains the physical timer.
	v.Ctx.VTimer = x.Board.Timers.SaveVirt(c.ID)
	x.Board.Timers.DisableVirt(c.ID, c.Clock)
	c.CP15.Regs[arm.SysCNTHCTL] = 3
	c.Charge(3 * c.Cost.SysRegMove)

	// VGIC state, with the lazy skip (§3.5).
	if !x.LazyVGIC || x.Board.GIC.PendingLRCount(c.ID) > 0 || vgicStateLive(&v.Ctx.VGIC) {
		st, cost := x.Board.GIC.SaveVGIC(c.ID)
		v.Ctx.VGIC = st
		c.Charge(cost)
		x.Board.GIC.SetVGICEnabled(c.ID, false)
		c.Charge(gic.CPUIfaceAccessCycles)
	} else {
		x.Stats.VGICSaveSkipped++
		v.Ctx.VGIC = gic.VGICCpu{}
	}
	// Reconcile the virtual distributor with what the guest ACKed and
	// EOIed while it ran.
	v.vm.VDist.SyncFrom(v, &v.Ctx.VGIC)

	// Lazy VFP: if the guest took the FP trap this residency, park its
	// state and restore the host's.
	if v.Ctx.Dirty {
		v.Ctx.VFP = c.VFP.Snapshot()
		c.VFP.Restore(hc.VFP)
		v.Ctx.Dirty = false
		c.Charge(uint64(arm.NumVFPDataRegs)*2*c.Cost.VFPRegMove + arm.NumVFPCtrlRegs*2*c.Cost.SysRegMove)
	}

	// Host callee-saved registers; the handler continues in the kernel.
	c.RestoreGP(hc.GP)
	c.Charge(hostCalleeSaved * c.Cost.RegRestore)
	c.PL1Handler = hc.PL1Software
	c.Runner = hc.Runner
	x.loaded[c.ID] = nil
	v.Unloaded(c)
	c.VIRQLine = false
	c.SetCPSR(hc.CPSR)

	if t := x.Trace; t != nil {
		t.Emit(trace.Event{Kind: trace.EvWorldSwitchOut, VM: v.vm.VMID, VCPU: int16(v.ID),
			CPU: int16(c.ID), PC: v.Ctx.GP.PC, Cycles: c.Clock - wsStart, Time: c.Clock})
	}
}

// vheExit is the EL2 trap handler — installed as the CPU's Hyp handler,
// but conceptually it IS the host kernel (TGE routing). A guest trap
// lands directly in the exit logic: no lowvisor dispatch, no double trap.
func (x *Hypervisor) vheExit(c *arm.CPU, e *arm.Exception) {
	v := x.loaded[c.ID]
	if v == nil {
		// A stray HVC from the host: with VHE no host path uses HVC.
		x.Stats.HostCalls++
		c.ERET()
		return
	}
	x.Stats.GuestTraps++

	// Lazy VFP switch: resolved without a world switch, exactly as the
	// split-mode lowvisor does (the trap cost is the same; only the
	// handler's privilege home changed).
	if e.Kind == arm.ExcHypTrap && arm.HSREC(e.HSR) == arm.ECVFP {
		start := c.Clock
		x.Stats.VFPLazySwitches++
		x.hostCtx[c.ID].VFP = c.VFP.Snapshot()
		c.VFP.Restore(v.Ctx.VFP)
		c.VFP.Enabled = true
		v.Ctx.Dirty = true
		c.CP15.Regs[arm.SysHCPTR] = 0
		c.Charge(uint64(arm.NumVFPDataRegs)*2*c.Cost.VFPRegMove + arm.NumVFPCtrlRegs*2*c.Cost.SysRegMove)
		if t := x.Trace; t != nil {
			t.Emit(trace.Event{Kind: trace.ExitVFP, VM: v.vm.VMID, VCPU: int16(v.ID),
				CPU: int16(c.ID), HSR: e.HSR, Cycles: c.Clock - start, Time: c.Clock})
		}
		c.ERET()
		return
	}

	// For MMIO aborts whose syndrome lacks the access description, load
	// the faulting instruction while the guest's Stage-1 state is live.
	var insn uint32
	var insnValid bool
	if e.Kind == arm.ExcHypTrap && arm.HSREC(e.HSR) == arm.ECDataAbort {
		if isv, _, _, _ := arm.DecodeDataAbortISS(arm.HSRISS(e.HSR)); !isv {
			if w, err := c.ReadVM(c.Regs.ELRHyp(), 4); err == nil {
				insn, insnValid = uint32(w), true
			}
		}
	}

	x.exitGuest(c, v)
	x.handleExit(c, v, e, insn, insnValid)
}

// reenter performs the return half of an in-kernel handled exit: a direct
// call back into the world switch — unless user space asked for a pause.
func (x *Hypervisor) reenter(c *arm.CPU, v *VCPU) {
	if v.ParkBeforeReentry() {
		return
	}
	x.enterGuest(c, v)
}

// handleExit runs after the world switch out, in host kernel context (the
// same privilege level it trapped at — that is the VHE difference).
func (x *Hypervisor) handleExit(c *arm.CPU, v *VCPU, e *arm.Exception, insn uint32, insnOK bool) {
	v.Stats.Exits++
	exitKind := trace.ExitOther
	var exitArg uint64
	if t := x.Trace; t != nil {
		start := c.Clock
		pc := v.Ctx.GP.PC
		defer func() {
			t.Emit(trace.Event{Kind: exitKind, VM: v.vm.VMID, VCPU: int16(v.ID),
				CPU: int16(c.ID), PC: pc, HSR: e.HSR, Arg: exitArg,
				Cycles: c.Clock - start, Time: c.Clock})
		}()
	}
	switch e.Kind {
	case arm.ExcIRQ, arm.ExcFIQ:
		// A physical interrupt while the VM ran: the host kernel takes it
		// as soon as we unwind; the vCPU thread then re-enters.
		exitKind = trace.ExitIRQ
		v.vm.Stats.IRQExits++
		v.ExitTo(hv.VCPUReady)
		x.vtimerOnExit(c, v)
		return
	case arm.ExcHVC:
		exitKind = trace.ExitHypercall
		x.handleHypercall(c, v, e)
		return
	case arm.ExcHypTrap:
		switch arm.HSREC(e.HSR) {
		case arm.ECHVC:
			exitKind = trace.ExitHypercall
			x.handleHypercall(c, v, e)
		case arm.ECWFx:
			exitKind = trace.ExitWFI
			v.vm.Stats.WFIExits++
			v.Ctx.GP.PC += 4 // skip the WFI/WFE
			v.ExitTo(hv.VCPUBlocked)
			x.vtimerOnExit(c, v)
		case arm.ECDataAbort, arm.ECInstrAbort:
			exitKind, exitArg = x.handleAbort(c, v, e, insn, insnOK)
		case arm.ECCP15, arm.ECCP14:
			exitKind = trace.ExitSysReg
			v.vm.Stats.SysRegTraps++
			x.emulateSysReg(c, v, e)
			v.Ctx.GP.PC += 4
			x.reenter(c, v)
		case arm.ECSMC:
			// VMs may not reach secure firmware; emulate as a NOP.
			exitKind = trace.ExitSMC
			v.Ctx.GP.PC += 4
			x.reenter(c, v)
		default:
			v.ExitTo(hv.VCPUReady)
		}
	default:
		v.ExitTo(hv.VCPUReady)
	}
}

// handleHypercall services guest HVC calls: PSCI power management, or the
// null hypercall of the Table 3 micro-benchmark.
func (x *Hypervisor) handleHypercall(c *arm.CPU, v *VCPU, e *arm.Exception) {
	v.vm.Stats.Hypercalls++
	switch e.Imm {
	case kernel.PSCISystemOff:
		v.vm.PowerOff(c.ID)
	default:
		// Null hypercall: immediately back in.
		x.reenter(c, v)
	}
}

// handleAbort distinguishes Stage-2 RAM faults from MMIO aborts — the
// logic is split-mode's; VHE changes where it runs, not what it does.
func (x *Hypervisor) handleAbort(c *arm.CPU, v *VCPU, e *arm.Exception, insn uint32, insnOK bool) (trace.Kind, uint64) {
	vm := v.vm
	ipa := e.FaultIPA
	if vm.Mem.InSlot(ipa) {
		if err := vm.ResolveRAMFault(c, ipa); err != nil {
			v.Shutdown()
		} else {
			x.reenter(c, v)
		}
		return trace.ExitStage2Fault, ipa
	}

	// MMIO: describe the access from the syndrome, or software-decode the
	// instruction loaded at trap time.
	isv, sizeLog2, rt, write := arm.DecodeDataAbortISS(arm.HSRISS(e.HSR))
	size := 1 << sizeLog2
	if !isv {
		if !insnOK {
			v.Shutdown()
			return trace.ExitOther, ipa
		}
		in := isa.Decode(insn)
		isMem, isStore, _, sz := in.IsMemAccess()
		if !isMem {
			v.Shutdown()
			return trace.ExitOther, ipa
		}
		vm.Stats.MMIODecoded++
		write, size, rt = isStore, sz, in.Rd
		c.Charge(200) // decode work
	}
	userBefore := vm.Stats.MMIOUserExits
	if !x.emulateMMIO(c, v, ipa, write, size, rt) {
		// The access raised a bus error (injected device fault): the vCPU
		// is dead, do not advance PC or re-enter the guest.
		return trace.ExitOther, ipa
	}
	kind := trace.ExitMMIOKernel
	if vm.Stats.MMIOUserExits != userBefore {
		kind = trace.ExitMMIOUser
	}
	v.Ctx.GP.PC += 4
	x.reenter(c, v)
	return kind, ipa
}

// emulateMMIO routes an MMIO access: the virtual distributor and other
// in-kernel devices are emulated directly; everything else goes to user
// space (QEMU). The board always has a VGIC here, so the GIC CPU
// interface never traps (it is Stage-2 mapped to the VGIC). It reports
// false when the access ended in a bus error and shut the vCPU down.
func (x *Hypervisor) emulateMMIO(c *arm.CPU, v *VCPU, ipa uint64, write bool, size, rt int) bool {
	vm := v.vm
	vm.Stats.MMIOExits++

	if ipa >= machine.GICDistBase && ipa < machine.GICDistBase+gic.DistSize {
		off := ipa - machine.GICDistBase
		if write {
			vm.VDist.WriteReg(v, off, v.Ctx.Reg(rt))
		} else {
			v.Ctx.SetReg(rt, vm.VDist.ReadReg(v, off))
		}
		c.Charge(600) // in-kernel emulation work incl. locking
		return true
	}

	// Registered regions: in-kernel device emulation work, or the round
	// trip to QEMU.
	val, ok := v.RegionAccess(c, ipa, write, size, uint64(v.Ctx.Reg(rt)),
		x.UserTransitionCycles+x.QEMUWorkCycles, 620)
	if ok && !write {
		v.Ctx.SetReg(rt, uint32(val))
	}
	return ok
}

// emulateSysReg services trapped MRC/MCR accesses. The timer-emulation
// branches of the split-mode backend never apply: VHE hardware always has
// virtual timers.
func (x *Hypervisor) emulateSysReg(c *arm.CPU, v *VCPU, e *arm.Exception) {
	reg, rt, read := arm.DecodeCP15ISS(arm.HSRISS(e.HSR))
	switch reg {
	case arm.SysACTLR, arm.SysACTLRCtx:
		if read {
			v.Ctx.SetReg(rt, v.Ctx.CP15[int(arm.SysACTLRCtx-arm.SysSCTLR)])
		}
		c.Charge(120)
	case arm.SysL2CTLR:
		if read {
			v.Ctx.SetReg(rt, uint32(v.vm.NumVCPUs()-1)<<24)
		}
		c.Charge(120)
	case arm.SysL2ECTLR, arm.SysCSSELR, arm.SysCCSIDR, arm.SysCP14DBG, arm.SysCP14TRC:
		if read {
			v.Ctx.SetReg(rt, 0)
		}
		c.Charge(120)
	case arm.SysDCISW, arm.SysDCCSW:
		// Set/way cache maintenance: perform on behalf of the guest.
		c.Charge(c.Cost.CacheOpSetWay + 150)
	default:
		if read {
			v.Ctx.SetReg(rt, 0)
		}
		c.Charge(120)
	}
}

// --- Virtual timer multiplexing (§3.6, unchanged by VHE) ---

func (x *Hypervisor) vtimerOnEntry(c *arm.CPU, v *VCPU) {
	x.cancelSoftTimer(c, v)
	st := v.Ctx.VTimer
	if st.CTL&timer.CTLEnable != 0 && st.CTL&timer.CTLIMask == 0 {
		if timer.Count(c.Clock)-st.CNTVOFF >= st.CVAL {
			st.CTL |= timer.CTLIMask
			v.Ctx.VTimer = st
		}
	}
	x.Board.Timers.RestoreVirt(c.ID, st, c.Clock)
}

func (x *Hypervisor) vtimerOnExit(c *arm.CPU, v *VCPU) {
	vt := v.Ctx.VTimer
	if vt.CTL&timer.CTLEnable == 0 || vt.CTL&timer.CTLIMask != 0 {
		return
	}
	vnow := timer.Count(c.Clock) - vt.CNTVOFF
	if vnow >= vt.CVAL {
		v.Ctx.VTimer.CTL |= timer.CTLIMask
		v.vm.VDist.InjectTimer(c.ID, v.ID)
		return
	}
	if v.softTimerID != 0 {
		return
	}
	x.armSoftTimer(c, v)
}

func (x *Hypervisor) armSoftTimer(c *arm.CPU, v *VCPU) {
	vt := v.Ctx.VTimer
	vnow := timer.Count(c.Clock) - vt.CNTVOFF
	delay := vt.CVAL - vnow
	hostCPU := c.ID
	v.softTimerCPU = hostCPU
	v.softTimerID = x.Host.AddTimer(hostCPU, c, delay+1, func(_ *kernel.Kernel, cpu int) {
		v.softTimerID = 0
		v.vm.VDist.InjectTimer(cpu, v.ID)
	})
}

func (x *Hypervisor) cancelSoftTimer(c *arm.CPU, v *VCPU) {
	if v.softTimerID != 0 {
		x.Host.CancelTimer(v.softTimerCPU, c, v.softTimerID)
		v.softTimerID = 0
	}
}
