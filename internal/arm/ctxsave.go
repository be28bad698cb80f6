package arm

import "kvmarm/internal/mmu"

// SaveGP captures the world-switched general-purpose register set (the 38
// registers of Table 1): r0–r12, the FIQ bank, all banked SP/LR pairs, the
// exception-mode SPSRs, PC, CPSR and ELR_hyp. The world switch charges
// RegSave per register; this function only moves the data.
func (c *CPU) SaveGP() GPSnapshot {
	var s GPSnapshot
	s.Low = c.Regs.low
	s.Mid = c.Regs.mid
	for i, b := range gpBanks {
		s.SP[i] = c.Regs.sp[b]
		s.LR[i] = c.Regs.lr[b]
	}
	for i, b := range spsrBanks {
		s.SPSR[i] = c.Regs.spsr[b]
	}
	s.PC = c.Regs.pc
	s.CPSR = c.CPSR
	s.ELRHyp = c.Regs.elrHyp
	return s
}

// RestoreGP writes a previously captured register set back. The CPSR is
// NOT restored here: the world switch ends with an explicit trap/return
// into the target mode (steps 10 and 9 of §3.2).
func (c *CPU) RestoreGP(s GPSnapshot) {
	c.Regs.low = s.Low
	c.Regs.mid = s.Mid
	for i, b := range gpBanks {
		c.Regs.sp[b] = s.SP[i]
		c.Regs.lr[b] = s.LR[i]
	}
	for i, b := range spsrBanks {
		c.Regs.spsr[b] = s.SPSR[i]
	}
	c.Regs.pc = s.PC
	c.Regs.elrHyp = s.ELRHyp
}

// ReadVM reads guest memory using the guest's PL1 translation regime while
// the CPU sits in Hyp mode — the path the hypervisor's MMIO instruction
// decoder uses to load the faulting instruction (§4). It works because the
// trap handler runs before the world switch restores the host's Stage-1
// state, so CP15 still holds the guest's configuration.
func (c *CPU) ReadVM(va uint32, size int) (uint64, error) {
	// A PL1 (guest kernel) access through Stage 2, not a Hyp access.
	c.pl1Regime(&c.tctx, false, true)
	res, f := c.MMU.Translate(&c.tctx, va, mmu.Load)
	if f != nil {
		return 0, &MemFaultError{Fault: f}
	}
	c.Charge(res.Cycles)
	c.Bus.Accessor = c.ID
	v, cost, err := c.Bus.Read(res.PA, size)
	c.Charge(cost)
	return v, err
}
