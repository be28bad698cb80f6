package kvmx86

import (
	"kvmarm/internal/arm"
	"kvmarm/internal/gic"
	"kvmarm/internal/hv"
	"kvmarm/internal/kernel"
	"kvmarm/internal/machine"
	"kvmarm/internal/timer"
	"kvmarm/internal/trace"
)

// This file is the VT-x transition machinery: VM entry (VMRESUME) and the
// exit handler. The crucial contrast with internal/core's lowvisor is that
// the hardware moves all state (a fixed VMEntry/VMExit charge instead of
// per-register software costs), and the handler already runs in the host
// kernel: no second trap.

// enterGuest is VMRESUME: swap in the guest context, pay the fixed entry
// cost, inject any pending virtual interrupt.
func (x *Hypervisor) enterGuest(c *arm.CPU, v *VCPU) {
	hc := &x.hostCtx[c.ID]
	x.Stats.VMEntries++
	v.Stats.Entries++
	wsStart := c.Clock

	// Hardware-managed state save/load: single instruction.
	hc.GP = c.SaveGP()
	hc.CPSR = c.CPSR
	hc.PL1Software = c.PL1Handler
	hc.Runner = c.Runner
	for i, r := range arm.CtxControlRegs() {
		hc.CP15[i] = c.CP15.Regs[r]
		c.CP15.Regs[r] = v.Ctx.CP15[i]
	}
	c.Charge(x.P.VMEntry)

	// Trap configuration (VMCS execution controls): interrupts exit,
	// HLT exits, EPT on. x86 has no SMC/ACTLR analogues; set/way ops
	// don't exist; we leave those trap bits clear.
	c.CP15.Regs[arm.SysHCR] = arm.HCRVM | arm.HCRIMO | arm.HCRFMO | arm.HCRTWI | arm.HCRTWE
	c.CP15.Write64(arm.SysVTTBRLo, v.vm.Mem.Table.Root|uint64(v.vm.VMID)<<48)

	// Guest timer state (KVM x86 emulates the APIC timer with hrtimers;
	// we back it with the hardware timer so TSC-style reads stay exit-free).
	x.timerOnEntry(c, v)

	c.RestoreGP(v.Ctx.GP)
	c.PL1Handler = v.Ctx.PL1Software
	c.Runner = v.Ctx.Runner
	x.loaded[c.ID] = v
	v.Loaded(c)
	c.SetCPSR(v.Ctx.GP.CPSR)

	// Event injection: pending virtual interrupts are delivered on entry.
	if v.vm.APIC.hasPendingFor(v) {
		c.VIRQLine = true
		c.Charge(x.P.InjectOnEntry)
	} else {
		c.VIRQLine = false
	}

	if t := x.Trace; t != nil {
		t.Emit(trace.Event{Kind: trace.EvWorldSwitchIn, VM: v.vm.VMID, VCPU: int16(v.ID),
			CPU: int16(c.ID), PC: v.Ctx.GP.PC, Cycles: c.Clock - wsStart, Time: c.Clock})
	}
}

// exitGuest is the VM exit: hardware stores the guest state and reloads
// the host's; the handler below then runs in root mode directly.
func (x *Hypervisor) exitGuest(c *arm.CPU, v *VCPU) {
	hc := &x.hostCtx[c.ID]
	x.Stats.VMExits++
	v.Stats.Exits++
	wsStart := c.Clock

	gp := c.SaveGP()
	gp.PC = c.Regs.ELRHyp()
	gp.CPSR = c.Regs.SPSRof(arm.ModeHYP)
	v.Ctx.GP = gp
	for i, r := range arm.CtxControlRegs() {
		v.Ctx.CP15[i] = c.CP15.Regs[r]
		c.CP15.Regs[r] = hc.CP15[i]
	}
	c.CP15.Regs[arm.SysHCR] = 0
	// The VMExit hardware cost was charged by the trap itself
	// (Cost.TrapToHyp == P.VMExit); only bookkeeping here.
	c.Charge(40)

	v.Ctx.VTimer = x.Board.Timers.SaveVirt(c.ID)
	x.Board.Timers.DisableVirt(c.ID, c.Clock)

	c.RestoreGP(hc.GP)
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

// vmExit is the root-mode handler for everything the guest does that
// exits; it is installed as the CPU's Hyp handler but conceptually runs
// in the host kernel (root mode, ring 0).
func (x *Hypervisor) vmExit(c *arm.CPU, e *arm.Exception) {
	v := x.loaded[c.ID]
	if v == nil {
		// Not a guest exit (stray HVC from the host); ignore.
		c.ERET()
		return
	}
	x.exitGuest(c, v)
	x.handleExit(c, v, e)
}

func (x *Hypervisor) reenter(c *arm.CPU, v *VCPU) {
	if v.ParkBeforeReentry() {
		return
	}
	x.enterGuest(c, v)
}

func (x *Hypervisor) handleExit(c *arm.CPU, v *VCPU, e *arm.Exception) {
	vm := v.vm
	// Classify the exit for the tracer on the way out: exactly one event
	// per exit, cycle-accounting the root-mode handling including the
	// re-entry when the exit resolves in the kernel.
	exitKind := trace.ExitOther
	var exitArg uint64
	if t := x.Trace; t != nil {
		start := c.Clock
		pc := v.Ctx.GP.PC
		defer func() {
			t.Emit(trace.Event{Kind: exitKind, VM: vm.VMID, VCPU: int16(v.ID),
				CPU: int16(c.ID), PC: pc, HSR: e.HSR, Arg: exitArg,
				Cycles: c.Clock - start, Time: c.Clock})
		}()
	}
	switch e.Kind {
	case arm.ExcIRQ, arm.ExcFIQ:
		exitKind = trace.ExitIRQ
		vm.Stats.IRQExits++
		v.ExitTo(hv.VCPUReady)
		x.timerOnExit(c, v)
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
		case arm.ECWFx: // HLT
			exitKind = trace.ExitWFI
			vm.Stats.WFIExits++
			v.Ctx.GP.PC += 4
			v.ExitTo(hv.VCPUBlocked)
			x.timerOnExit(c, v)
		case arm.ECDataAbort, arm.ECInstrAbort:
			exitKind, exitArg = x.handleEPTViolation(c, v, e)
		case arm.ECCP15:
			exitKind = trace.ExitSysReg
			vm.Stats.SysRegTraps++
			x.emulateSysReg(c, v, e)
			v.Ctx.GP.PC += 4
			x.reenter(c, v)
		default:
			v.ExitTo(hv.VCPUReady)
		}
	default:
		v.ExitTo(hv.VCPUReady)
	}
}

// handleHypercall services guest VMCALLs: PSCI-style power-off, or the
// null hypercall of the Table 3 micro-benchmark.
func (x *Hypervisor) handleHypercall(c *arm.CPU, v *VCPU, e *arm.Exception) {
	v.vm.Stats.Hypercalls++
	if e.Imm == kernel.PSCISystemOff {
		v.vm.PowerOff(c.ID)
		return
	}
	x.reenter(c, v)
}

// handleEPTViolation resolves guest-physical faults: RAM slots are backed
// with host pages; everything else is MMIO, which on x86 always needs
// software instruction decode (no syndrome assist; "a number of
// operations require software decoding of instructions on the x86
// platform"). Returns the exit classification for the tracer.
func (x *Hypervisor) handleEPTViolation(c *arm.CPU, v *VCPU, e *arm.Exception) (trace.Kind, uint64) {
	vm := v.vm
	gpa := e.FaultIPA
	if vm.Mem.InSlot(gpa) {
		if err := vm.ResolveRAMFault(c, gpa); err != nil {
			v.Shutdown()
		} else {
			x.reenter(c, v)
		}
		return trace.ExitStage2Fault, gpa
	}

	// MMIO: decode the instruction (always, on x86).
	_, sizeLog2, rt, write := arm.DecodeDataAbortISS(arm.HSRISS(e.HSR))
	size := 1 << sizeLog2
	vm.Stats.MMIODecoded++
	c.Charge(x.P.APICDecode)
	userBefore := vm.Stats.MMIOUserExits
	if !x.emulateMMIO(c, v, gpa, write, size, rt) {
		// The access raised a bus error (injected device fault): the vCPU
		// is dead, do not advance PC or re-enter the guest.
		return trace.ExitOther, gpa
	}
	kind := trace.ExitMMIOKernel
	if vm.Stats.MMIOUserExits != userBefore {
		kind = trace.ExitMMIOUser
	}
	v.Ctx.GP.PC += 4
	x.reenter(c, v)
	return kind, gpa
}

// emulateMMIO routes an MMIO access. It reports false when the access
// ended in a bus error and shut the vCPU down.
func (x *Hypervisor) emulateMMIO(c *arm.CPU, v *VCPU, gpa uint64, write bool, size, rt int) bool {
	vm := v.vm
	vm.Stats.MMIOExits++

	// APIC region (we reuse the GIC distributor window as the guest's
	// interrupt-controller address): ICR writes are the IPI path.
	if gpa >= machine.GICDistBase && gpa < machine.GICDistBase+gic.DistSize {
		off := gpa - machine.GICDistBase
		if write {
			vm.APIC.WriteReg(v, off, regOf(v, rt))
		} else {
			setRegOf(v, rt, vm.APIC.ReadReg(v, off))
		}
		c.Charge(x.P.APICEmulate)
		return true
	}

	val, ok := v.RegionAccess(c, gpa, write, size, uint64(regOf(v, rt)),
		x.P.KernelToUser+x.P.QEMUWork, x.P.IOKernelWork)
	if ok && !write {
		setRegOf(v, rt, uint32(val))
	}
	return ok
}

// emulateSysReg handles trapped register accesses — for x86 this is the
// APIC timer (TSC reads never exit).
func (x *Hypervisor) emulateSysReg(c *arm.CPU, v *VCPU, e *arm.Exception) {
	reg, rt, read := arm.DecodeCP15ISS(arm.HSRISS(e.HSR))
	x.Stats.TimerExits++
	c.Charge(x.P.TimerEmulate)
	vt := &v.Ctx.VTimer
	vnow := timer.Count(c.Clock) - vt.CNTVOFF
	switch reg {
	case arm.SysCNTVCTL, arm.SysCNTPCTL:
		if read {
			setRegOf(v, rt, vt.CTL)
			return
		}
		vt.CTL = regOf(v, rt) &^ timer.CTLIStatus
	case arm.SysCNTVTVAL, arm.SysCNTPTVAL:
		if read {
			setRegOf(v, rt, uint32(vt.CVAL-vnow))
			return
		}
		vt.CVAL = vnow + uint64(int64(int32(regOf(v, rt))))
	default:
		if read {
			setRegOf(v, rt, 0)
		}
		return
	}
	// Keep the backing hardware timer in sync so in-guest expiry forces
	// an exit (the hrtimer model).
	x.Board.Timers.RestoreVirt(c.ID, *vt, c.Clock)
}

// regOf/setRegOf access a saved guest register.
func regOf(v *VCPU, n int) uint32 {
	g := &v.Ctx
	switch {
	case n < 8:
		return g.GP.Low[n]
	case n < 13:
		return g.GP.Mid[0][n-8]
	}
	return 0
}

func setRegOf(v *VCPU, n int, val uint32) {
	g := &v.Ctx
	switch {
	case n < 8:
		g.GP.Low[n] = val
	case n < 13:
		g.GP.Mid[0][n-8] = val
	}
}

// --- Guest timer multiplexing (hrtimer model) ---

func (x *Hypervisor) timerOnEntry(c *arm.CPU, v *VCPU) {
	if v.softTimerID != 0 {
		x.Host.CancelTimer(v.softTimerCPU, c, v.softTimerID)
		v.softTimerID = 0
	}
	st := v.Ctx.VTimer
	if st.CTL&timer.CTLEnable != 0 && st.CTL&timer.CTLIMask == 0 {
		if timer.Count(c.Clock)-st.CNTVOFF >= st.CVAL {
			st.CTL |= timer.CTLIMask
			v.Ctx.VTimer = st
		}
	}
	x.Board.Timers.RestoreVirt(c.ID, st, c.Clock)
}

func (x *Hypervisor) timerOnExit(c *arm.CPU, v *VCPU) {
	vt := v.Ctx.VTimer
	if vt.CTL&timer.CTLEnable == 0 || vt.CTL&timer.CTLIMask != 0 {
		return
	}
	vnow := timer.Count(c.Clock) - vt.CNTVOFF
	if vnow >= vt.CVAL {
		v.vm.APIC.InjectTimer(c.ID, v.ID)
		return
	}
	v.softTimerCPU = c.ID
	v.softTimerID = x.Host.AddTimer(c.ID, c, vt.CVAL-vnow+1, func(_ *kernel.Kernel, cpu int) {
		v.softTimerID = 0
		v.vm.APIC.InjectTimer(cpu, v.ID)
	})
}
