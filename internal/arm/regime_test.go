package arm

import (
	"testing"

	"kvmarm/internal/mmu"
)

// TestRegimeTable pins the translation regime for every mode × SCTLR.M ×
// HCR.VM combination. Hyp translates through HSCTLR/HTTBR only; every
// other mode uses the PL1&0 tables, with Stage 2 exactly when HCR.VM is
// set. The context is dirtied before each fill, since regime writes in
// place and must leave no field of an earlier regime behind.
func TestRegimeTable(t *testing.T) {
	const (
		ttbr0  = 0x8010_0000
		ttbr1  = 0x8020_0000
		ttbcr  = 0x8000_0000
		asid   = 0x2A
		httbr  = 0x8030_0000
		s2root = 0x8040_0000
		vmid   = 7
	)
	modes := []Mode{ModeUSR, ModeFIQ, ModeIRQ, ModeSVC, ModeMON, ModeABT, ModeHYP, ModeUND, ModeSYS}
	for _, m := range modes {
		for _, sctlrM := range []bool{false, true} {
			for _, vm := range []bool{false, true} {
				c := testCPU(t)
				c.setMode(m)
				if sctlrM {
					c.CP15.Regs[SysSCTLR] |= SCTLRM
				} else {
					// Hyp's own enable is the opposite, so a Hyp
					// regime reading SCTLR would show.
					c.CP15.Regs[SysHSCTLR] |= SCTLRM
				}
				if vm {
					c.CP15.Regs[SysHCR] = HCRVM
				}
				c.CP15.Write64(SysTTBR0Lo, ttbr0)
				c.CP15.Write64(SysTTBR1Lo, ttbr1)
				c.CP15.Regs[SysTTBCR] = ttbcr
				c.CP15.Regs[SysCONTEXTIDR] = asid
				c.CP15.Write64(SysHTTBRLo, httbr)
				c.CP15.Write64(SysVTTBRLo, s2root|vmid<<48)

				var want mmu.Context
				if m == ModeHYP {
					want = mmu.Context{S1Enabled: !sctlrM, Format: mmu.FormatHyp, TTBR0: httbr}
				} else {
					want = mmu.Context{S1Enabled: sctlrM, Format: mmu.FormatKernel,
						TTBR0: ttbr0, TTBR1: ttbr1, TTBR1Base: ttbcr, ASID: asid, User: m == ModeUSR}
					if vm {
						want.S2Enabled, want.VTTBR, want.VMID = true, s2root, vmid
					}
				}
				got := mmu.Context{S1Enabled: true, Format: mmu.FormatHyp + 1, TTBR0: ^uint64(0),
					TTBR1: ^uint64(0), TTBR1Base: ^uint32(0), ASID: 0xFF, User: true,
					S2Enabled: true, VTTBR: ^uint64(0), VMID: 0xFF}
				c.regime(&got)
				if got != want {
					t.Errorf("%v SCTLR.M=%v HCR.VM=%v: regime = %+v, want %+v", m, sctlrM, vm, got, want)
				}
			}
		}
	}
}

// TestAccessTLBHitAllocFree holds a guest load that hits the TLB to zero
// host allocations: the regime is filled in place, not built per access.
func TestAccessTLBHitAllocFree(t *testing.T) {
	c := testCPU(t)
	c.Secure = false
	ram := c.Bus.RAM
	pool := &testPool{next: 0x8040_0000, ram: ram}
	b, err := mmu.NewBuilder(mmu.TableStage2, ram, pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.MapPage(0, 0x8100_0000, mmu.MapFlags{W: true}); err != nil {
		t.Fatal(err)
	}
	c.setMode(ModeSVC)
	c.CP15.Regs[SysHCR] = HCRVM
	c.CP15.Write64(SysVTTBRLo, b.Root)

	var v uint64
	if taken := c.Access(0x10, 4, mmu.Load, &v, true, 0); taken {
		t.Fatal("priming load faulted")
	}
	before := c.MMU.Stats()
	allocs := testing.AllocsPerRun(100, func() {
		if taken := c.Access(0x10, 4, mmu.Load, &v, true, 0); taken {
			t.Fatal("load faulted")
		}
	})
	after := c.MMU.Stats()
	if after.Misses != before.Misses || after.Hits == before.Hits {
		t.Fatalf("loads did not hit the TLB: before %+v after %+v", before, after)
	}
	if allocs != 0 {
		t.Fatalf("TLB-hitting Access allocates %v times per call, want 0", allocs)
	}
}

// TestTLBIASIDNeighbourInvariance: two VMs share a physical CPU, its TLB,
// and — since every guest kernel numbers its ASIDs from 1 — the same
// ASID. VM A running a TLBIASID storm on that ASID must leave VM B's
// translations alone: B's cycles and TLB hit/miss counts for re-reading
// its pages are the same whether A storms or idles. B's own TLBIASID
// still empties B's entries, so the scope is not vacuous.
func TestTLBIASIDNeighbourInvariance(t *testing.T) {
	const (
		asid        = 1
		vmidA       = 1
		vmidB       = 2
		pages       = 8
		stormLength = 100
	)
	type phase struct{ cycles, hits, misses uint64 }
	run := func(storm, selfFlush bool) phase {
		c := testCPU(t)
		c.Secure = false
		ram := c.Bus.RAM
		pool := &testPool{next: 0x8040_0000, ram: ram}
		s2, err := mmu.NewBuilder(mmu.TableStage2, ram, pool)
		if err != nil {
			t.Fatal(err)
		}
		if err := s2.MapRange(0, 0x8100_0000, 16<<20, mmu.MapFlags{W: true}); err != nil {
			t.Fatal(err)
		}
		gpool := &testPool{next: 0x0080_0000, ram: ram, off: 0x8100_0000}
		s1, err := mmu.NewBuilder(mmu.TableKernel, offsetMem{ram, 0x8100_0000}, gpool)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint32(0); i < pages; i++ {
			if err := s1.MapPage(0x0010_0000+i*mmu.PageSize, 0x0020_0000+uint64(i)*mmu.PageSize, mmu.MapFlags{W: true}); err != nil {
				t.Fatal(err)
			}
		}
		// Both guests run the same kernel layout: same Stage-1 table,
		// same ASID; only the VMID tells them apart.
		c.setMode(ModeSVC)
		c.CP15.Regs[SysHCR] = HCRVM
		c.CP15.Regs[SysSCTLR] = SCTLRM
		c.CP15.Write64(SysTTBR0Lo, s1.Root)
		c.CP15.Regs[SysCONTEXTIDR] = asid
		enter := func(vmid uint64) { c.CP15.Write64(SysVTTBRLo, s2.Root|vmid<<48) }
		touch := func() {
			var v uint64
			for i := uint32(0); i < pages; i++ {
				if taken := c.Access(0x0010_0000+i*mmu.PageSize, 4, mmu.Load, &v, true, 0); taken {
					t.Fatalf("load of page %d faulted", i)
				}
			}
		}
		enter(vmidB)
		touch()
		if selfFlush && c.WriteSys(SysTLBIASID, 0, asid) {
			t.Fatal("TLBIASID trapped")
		}
		enter(vmidA)
		for i := 0; storm && i < stormLength; i++ {
			if c.WriteSys(SysTLBIASID, 0, asid) {
				t.Fatal("TLBIASID trapped")
			}
		}
		enter(vmidB)
		clk, st := c.Clock, c.MMU.Stats()
		touch()
		after := c.MMU.Stats()
		return phase{c.Clock - clk, after.Hits - st.Hits, after.Misses - st.Misses}
	}
	idle, storm := run(false, false), run(true, false)
	if idle != storm {
		t.Fatalf("VM B re-reading its pages: %+v with VM A idle, %+v with VM A's TLBIASID storm", idle, storm)
	}
	if idle.hits != pages || idle.misses != 0 {
		t.Fatalf("VM B re-read = %+v, want %d hits and no misses", idle, pages)
	}
	if self := run(false, true); self.misses != pages {
		t.Fatalf("VM B after its own TLBIASID = %+v, want %d misses", self, pages)
	}
}
