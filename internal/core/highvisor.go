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

// Highvisor is the kernel-mode half of KVM/ARM (§3.1): it runs as part of
// the host kernel and leverages its services — GetUserPages-style
// allocation for Stage-2 faults, software timers for virtual timer
// multiplexing, wait queues for WFI blocking — plus the virtual
// distributor and all MMIO emulation and routing.
type Highvisor struct {
	kvm *KVM
}

func newHighvisor(k *KVM) *Highvisor { return &Highvisor{kvm: k} }

// handleExit runs immediately after a world switch out, in host kernel
// context. Exits it can finish in the kernel re-enter the guest before
// returning (paying the double trap both ways); exits that need the vCPU
// thread (WFI blocking, physical interrupts, shutdown) just set the vCPU
// state and unwind.
func (h *Highvisor) handleExit(c *arm.CPU, v *VCPU, e *arm.Exception, insn uint32, insnOK bool) {
	v.Stats.Exits++
	// Exit-class tracing: classify the trap into one of the trace.Exit*
	// kinds (the taxonomy behind the paper's Table 3 rows) and emit one
	// event per exit, cycle-accounting the in-kernel handling including
	// the re-entry world switch when the exit resolves in the kernel.
	exitKind := trace.ExitOther
	var exitArg uint64
	if t := h.kvm.Trace; t != nil {
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
		// A physical interrupt while the VM ran: the host kernel takes
		// it as soon as we unwind (its CPSR unmasks IRQs); the vCPU
		// thread then re-enters.
		exitKind = trace.ExitIRQ
		v.vm.Stats.IRQExits++
		v.ExitTo(hv.VCPUReady)
		h.vtimerOnExit(c, v)
		return
	case arm.ExcHVC:
		exitKind = trace.ExitHypercall
		h.handleHypercall(c, v, e)
		return
	case arm.ExcHypTrap:
		switch arm.HSREC(e.HSR) {
		case arm.ECHVC:
			exitKind = trace.ExitHypercall
			h.handleHypercall(c, v, e)
		case arm.ECWFx:
			exitKind = trace.ExitWFI
			v.vm.Stats.WFIExits++
			v.Ctx.GP.PC += 4 // skip the WFI/WFE
			v.ExitTo(hv.VCPUBlocked)
			h.vtimerOnExit(c, v)
		case arm.ECDataAbort, arm.ECInstrAbort:
			exitKind, exitArg = h.handleAbort(c, v, e, insn, insnOK)
		case arm.ECCP15, arm.ECCP14:
			exitKind = trace.ExitSysReg
			v.vm.Stats.SysRegTraps++
			h.emulateSysReg(c, v, e)
			v.Ctx.GP.PC += 4
			h.reenter(c, v)
		case arm.ECSMC:
			// VMs may not reach secure firmware; emulate as a NOP.
			exitKind = trace.ExitSMC
			v.Ctx.GP.PC += 4
			h.reenter(c, v)
		default:
			v.ExitTo(hv.VCPUReady)
		}
	default:
		v.ExitTo(hv.VCPUReady)
	}
}

// reenter performs the second half of an in-kernel handled exit: the world
// switch back in (in split mode an HVC into the lowvisor) — unless user
// space asked for a pause, in which case the vCPU parks with its state
// saved.
func (h *Highvisor) reenter(c *arm.CPU, v *VCPU) {
	if v.ParkBeforeReentry() {
		return
	}
	h.kvm.ws.Enter(c, v)
}

// handleHypercall services guest HVC calls: PSCI power management, or the
// null hypercall used by the Table 3 micro-benchmark ("two world switches
// ... without doing any work in the host").
func (h *Highvisor) handleHypercall(c *arm.CPU, v *VCPU, e *arm.Exception) {
	v.vm.Stats.Hypercalls++
	switch e.Imm {
	case kernel.PSCISystemOff:
		v.vm.PowerOff(c.ID)
	default:
		// Null hypercall: immediately back in.
		h.reenter(c, v)
	}
}

// handleAbort distinguishes Stage-2 RAM faults (resolved with the host
// kernel's allocator, §3.3) from MMIO aborts (emulated, §3.4). It returns
// the trace classification of the abort — ExitStage2Fault with the
// faulting IPA, or ExitMMIOUser/ExitMMIOKernel depending on whether the
// emulation needed a round trip to user space (Table 3 "I/O User" vs
// "I/O Kernel").
func (h *Highvisor) handleAbort(c *arm.CPU, v *VCPU, e *arm.Exception, insn uint32, insnOK bool) (trace.Kind, uint64) {
	vm := v.vm
	ipa := e.FaultIPA
	if vm.Mem.InSlot(ipa) {
		if err := vm.ResolveRAMFault(c, ipa); err != nil {
			v.Shutdown()
		} else {
			h.reenter(c, v)
		}
		return trace.ExitStage2Fault, ipa
	}

	// MMIO: describe the access from the syndrome, or decode the
	// instruction loaded by the lowvisor (§4: the software decoder).
	isv, sizeLog2, rt, write := arm.DecodeDataAbortISS(arm.HSRISS(e.HSR))
	size := 1 << sizeLog2
	if !isv {
		if !insnOK {
			// Cannot describe the access: treat as a guest bug.
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
	if !h.emulateMMIO(c, v, ipa, write, size, rt) {
		// The access raised a bus error (injected device fault): the vCPU
		// is dead, do not advance PC or re-enter the guest.
		return trace.ExitOther, ipa
	}
	kind := trace.ExitMMIOKernel
	if vm.Stats.MMIOUserExits != userBefore {
		kind = trace.ExitMMIOUser
	}
	v.Ctx.GP.PC += 4
	h.reenter(c, v)
	return kind, ipa
}

// emulateMMIO routes an MMIO access: the virtual distributor and other
// in-kernel devices are emulated directly; everything else goes to user
// space (QEMU), paying the kernel→user→kernel transition. It reports false
// when the access ended in a bus error and shut the vCPU down.
func (h *Highvisor) emulateMMIO(c *arm.CPU, v *VCPU, ipa uint64, write bool, size, rt int) bool {
	vm := v.vm
	vm.Stats.MMIOExits++

	// Virtual distributor: in-kernel with VGIC support (§3.5). Without
	// it, interrupt-controller emulation lives in QEMU: "sending, EOIing
	// and ACKing interrupts trap to the hypervisor and are handled by
	// QEMU in user space" (§5.2).
	if ipa >= machine.GICDistBase && ipa < machine.GICDistBase+gic.DistSize {
		off := ipa - machine.GICDistBase
		if write {
			vm.VDist.WriteReg(v, off, v.Ctx.Reg(rt))
		} else {
			v.Ctx.SetReg(rt, vm.VDist.ReadReg(v, off))
		}
		if h.kvm.Board.Cfg.HasVGIC {
			c.Charge(600) // in-kernel emulation work incl. locking
		} else {
			vm.Stats.MMIOUserExits++
			c.Charge(h.kvm.UserTransitionCycles + h.kvm.QEMUWorkCycles)
		}
		return true
	}

	// GIC CPU interface: only reachable without VGIC hardware; ACK/EOI
	// are emulated in user space (the expensive path of Table 3).
	if ipa >= machine.GICCPUBase && ipa < machine.GICCPUBase+gic.CPUIfaceSize {
		vm.Stats.MMIOUserExits++
		c.Charge(h.kvm.UserTransitionCycles + h.kvm.QEMUWorkCycles)
		off := ipa - machine.GICCPUBase
		switch {
		case off == gic.GICCIar && !write:
			id, src := vm.VDist.AckEmu(v)
			v.Ctx.SetReg(rt, uint32(id)|uint32(src)<<gic.IARSourceShift)
		case off == gic.GICCEoir && write:
			vm.VDist.EOIEmu(v, int(v.Ctx.Reg(rt)&0x3FF))
		case !write:
			v.Ctx.SetReg(rt, 1)
		}
		if !h.kvm.Board.Cfg.HasVGIC {
			c.VIRQLine = false // recomputed at re-entry
		}
		return true
	}

	// Registered regions: in-kernel device emulation work, or the round
	// trip to QEMU.
	val, ok := v.RegionAccess(c, ipa, write, size, uint64(v.Ctx.Reg(rt)),
		h.kvm.UserTransitionCycles+h.kvm.QEMUWorkCycles, 620)
	if ok && !write {
		v.Ctx.SetReg(rt, uint32(val))
	}
	return ok
}

// emulateSysReg services trapped MRC/MCR accesses (the Trap-and-Emulate
// half of Table 1, plus counter/timer emulation, vtimer.go).
func (h *Highvisor) emulateSysReg(c *arm.CPU, v *VCPU, e *arm.Exception) {
	reg, rt, read := arm.DecodeCP15ISS(arm.HSRISS(e.HSR))
	switch reg {
	case arm.SysACTLR, arm.SysACTLRCtx:
		if read {
			v.Ctx.SetReg(rt, v.Ctx.CP15[int(arm.SysACTLRCtx-arm.SysSCTLR)])
		}
		c.Charge(120)
	case arm.SysL2CTLR:
		if read {
			// Virtual L2 geometry: report the vCPU count in the
			// number-of-cores field.
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
	case arm.SysCNTVCTLo, arm.SysCNTVCTHi, arm.SysCNTPCTLo, arm.SysCNTPCTHi,
		arm.SysCNTVCTL, arm.SysCNTVTVAL, arm.SysCNTPCTL, arm.SysCNTPTVAL:
		h.emulateTimerReg(c, v, reg, rt, read)
	default:
		if read {
			v.Ctx.SetReg(rt, 0)
		}
		c.Charge(120)
	}
}
