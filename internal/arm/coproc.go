package arm

// This file implements the MRC/MCR system-register access path with the
// virtualization-extension trap checks: the hardware mechanism behind the
// "Trap-and-Emulate" half of Table 1. Guest kernels (and the SARM32
// interpreter) funnel every system-register access through ReadSys/WriteSys
// so that sensitive accesses genuinely trap to the lowvisor.

// sysTrap decides whether an access to reg from the current (non-Hyp,
// non-secure) mode must trap to Hyp mode.
func (c *CPU) sysTrap(reg SysReg, write bool) bool {
	hcr := c.HCR()
	switch reg {
	case SysACTLR:
		return hcr&HCRTAC != 0
	case SysL2CTLR, SysL2ECTLR:
		// Implementation-defined registers; KVM/ARM traps them with the
		// same configuration bit as ACTLR and emulates reads.
		return hcr&HCRTAC != 0
	case SysDCISW, SysDCCSW:
		return hcr&HCRTSW != 0
	case SysCSSELR, SysCCSIDR:
		return hcr&HCRTID2 != 0
	case SysSCTLR, SysTTBR0Lo, SysTTBR0Hi, SysTTBR1Lo, SysTTBR1Hi, SysTTBCR,
		SysDACR, SysPRRR, SysNMRR, SysAMAIR0, SysAMAIR1, SysCONTEXTIDR:
		// Virtual-memory controls trap only when HCR.TVM is set (used
		// transiently by hypervisors; not in KVM/ARM's steady state,
		// so the VM programs its Stage-1 tables without trapping).
		return hcr&HCRTVM != 0
	case SysCP14DBG:
		return c.CP15.Regs[SysHDCR]&HDCRTDA != 0
	case SysCP14TRC:
		return c.CP15.Regs[SysHSTR]&HSTRTTEE != 0
	case SysCNTPCTLo, SysCNTPCTHi:
		// Physical counter reads from PL1/PL0 are controlled by
		// CNTHCTL.PL1PCTEN (bit 0).
		return c.CP15.Regs[SysCNTHCTL]&1 == 0 && c.HCR()&HCRVM != 0
	case SysCNTPCTL, SysCNTPTVAL:
		// Physical timer accesses are controlled by CNTHCTL.PL1PCEN
		// (bit 1); the hypervisor keeps the physical timer for itself
		// (§3.6).
		return c.CP15.Regs[SysCNTHCTL]&2 == 0 && c.HCR()&HCRVM != 0
	case SysCNTVCTLo, SysCNTVCTHi:
		// Virtual counter reads never trap — unless the hardware has
		// no virtual timers, in which case the hypervisor must trap
		// and emulate every access (the "no vtimers" configuration).
		return !c.Feat.HasVirtTimer && c.HCR()&HCRVM != 0
	case SysCNTVCTL, SysCNTVTVAL:
		if c.HCR()&HCRVM == 0 {
			return false
		}
		if !c.Feat.HasVirtTimer {
			return true
		}
		// x86-style hardware: timer programming exits to root mode.
		return write && c.Feat.TimerWriteTraps
	}
	return false
}

func (c *CPU) trapSys(reg SysReg, rt int, read bool) {
	c.TakeException(&Exception{Kind: ExcHypTrap, HSR: MakeHSR(ECCP15, CP15ISS(reg, rt, read))})
}

// undef delivers an undefined-instruction exception.
func (c *CPU) undef() {
	c.TakeException(&Exception{Kind: ExcUndef})
}

// userAccessible reports whether reg may be touched from PL0 at all.
func userAccessible(reg SysReg, read bool) bool {
	switch reg {
	case SysTPIDRURW:
		return true
	case SysTPIDRURO, SysCNTFRQ, SysCNTVCTLo, SysCNTVCTHi, SysCNTPCTLo, SysCNTPCTHi:
		return read
	}
	return false
}

func isTimerReg(reg SysReg) bool {
	return reg >= SysCNTFRQ && reg <= SysCNTHCTL
}

// hypOnlyTimer lists the timer registers reserved to PL2: the virtual
// offset and the PL1 access-control register.
func hypOnlyTimer(reg SysReg) bool {
	return reg == SysCNTVOFFLo || reg == SysCNTVOFFHi || reg == SysCNTHCTL
}

// ReadSys performs an MRC: read reg into a GP register (rt used for the
// trap syndrome). Reports whether an exception was taken instead.
func (c *CPU) ReadSys(reg SysReg, rt int) (uint32, bool) {
	m := c.Mode()
	if reg.IsHypReg() || hypOnlyTimer(reg) {
		if m != ModeHYP && m != ModeMON {
			c.undef()
			return 0, true
		}
	} else if m == ModeUSR && !userAccessible(reg, true) {
		c.undef()
		return 0, true
	}
	if m != ModeHYP && m != ModeMON && c.sysTrap(reg, false) {
		c.trapSys(reg, rt, true)
		return 0, true
	}
	c.Charge(c.Cost.SysRegMove)

	switch {
	case isTimerReg(reg) && c.Timer != nil && reg != SysCNTFRQ:
		return c.Timer.ReadTimerReg(c.ID, reg, c.Clock), false
	case reg == SysMIDR && m != ModeHYP && m != ModeMON:
		// PL1 reads see the shadow ID registers the hypervisor
		// installed (world-switch step 7).
		return c.CP15.Regs[SysVPIDR], false
	case reg == SysMPIDR && m != ModeHYP && m != ModeMON:
		return c.CP15.Regs[SysVMPIDR], false
	}
	return c.CP15.Regs[reg], false
}

// WriteSys performs an MCR: write v to reg. Reports whether an exception
// was taken instead.
func (c *CPU) WriteSys(reg SysReg, rt int, v uint32) bool {
	m := c.Mode()
	if reg.IsHypReg() || hypOnlyTimer(reg) {
		if m != ModeHYP && m != ModeMON {
			c.undef()
			return true
		}
	} else if m == ModeUSR && !userAccessible(reg, false) {
		c.undef()
		return true
	}
	if m != ModeHYP && m != ModeMON && c.sysTrap(reg, true) {
		c.trapSys(reg, rt, false)
		return true
	}
	c.Charge(c.Cost.SysRegMove)

	switch reg {
	case SysMIDR, SysMPIDR, SysCCSIDR, SysCLIDRCtx:
		// Read-only; writes are ignored.
		return false
	case SysTLBIALL:
		if c.InGuest() {
			// TLB maintenance from a VM is scoped to its VMID by the
			// hardware; other VMs and the host are untouched.
			c.MMU.FlushVMID(uint8(c.CP15.Read64(SysVTTBRLo) >> 48))
		} else {
			c.MMU.FlushAll()
		}
		c.Charge(c.Cost.TLBFlushAll)
		return false
	case SysTLBIASID:
		c.FlushASID(uint8(v))
		c.Charge(c.Cost.TLBFlushASID)
		return false
	case SysICIALLU:
		c.Charge(c.Cost.TLBFlushAll)
		return false
	case SysDCISW, SysDCCSW:
		c.Charge(c.Cost.CacheOpSetWay)
		return false
	}
	if isTimerReg(reg) && c.Timer != nil && reg != SysCNTFRQ {
		c.Timer.WriteTimerReg(c.ID, reg, v, c.Clock)
		return false
	}
	c.CP15.Regs[reg] = v
	return false
}

// ReadSys64 reads a 64-bit register pair (MRRC) with the same checks.
func (c *CPU) ReadSys64(lo SysReg, rt int) (uint64, bool) {
	l, trapped := c.ReadSys(lo, rt)
	if trapped {
		return 0, true
	}
	h, trapped := c.ReadSys(lo+1, rt)
	if trapped {
		return 0, true
	}
	return uint64(l) | uint64(h)<<32, false
}

// WriteSys64 writes a 64-bit register pair (MCRR) with the same checks.
func (c *CPU) WriteSys64(lo SysReg, rt int, v uint64) bool {
	if trapped := c.WriteSys(lo, rt, uint32(v)); trapped {
		return true
	}
	return c.WriteSys(lo+1, rt, uint32(v>>32))
}

// VFPAccess gates a floating-point instruction: HCPTR.TCP10/11 trap the
// first FP use after a world switch so state can be switched lazily
// (world-switch step 6).
func (c *CPU) VFPAccess() (trapped bool) {
	if c.Mode() != ModeHYP && c.CP15.Regs[SysHCPTR]&(HCPTRTCP10|HCPTRTCP11) != 0 {
		c.TakeException(&Exception{Kind: ExcHypTrap, HSR: MakeHSR(ECVFP, 0)})
		return true
	}
	if !c.VFP.Enabled {
		c.undef()
		return true
	}
	return false
}
