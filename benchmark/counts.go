package main

import (
	"kvmarm/internal/dev"
	"kvmarm/internal/hv"
)

// addCounts folds one finished environment's exported counters into the
// repeat's event counts: the hypervisor's own counters, each VM's exit
// statistics, each vCPU's scheduling statistics, the CPUs' TLB statistics
// and the VMs' NIC and copy-on-write state. Everything here is simulated
// state, so every count is exact for a seed.
func (r *recorder) addCounts(env *hv.Env) {
	c := r.counts
	hc := env.HV.Counters()
	c["world_switches"] += float64(hc["world_switch_in"] + hc["vm_entries"])
	c["block_hits"] += float64(hc["block_hits"])
	c["block_misses"] += float64(hc["block_misses"])
	c["isa.block_invals"] += float64(hc["block_invals"])
	for _, vm := range env.HV.VMs() {
		st := vm.StatsSnapshot()
		c["count.exits_hypercall"] += float64(st.Hypercalls)
		// MMIOUserExits also counts user-space round trips that are not
		// MMIO aborts (timer and interrupt-controller emulation without
		// the hardware), so it can exceed MMIOExits.
		if st.MMIOExits > st.MMIOUserExits {
			c["count.exits_mmio_kernel"] += float64(st.MMIOExits - st.MMIOUserExits)
		}
		c["count.exits_mmio_user"] += float64(st.MMIOUserExits)
		c["count.exits_s2_fault"] += float64(st.Stage2Faults)
		c["count.exits_irq"] += float64(st.IRQExits)
		c["count.exits_wfi"] += float64(st.WFIExits)
		c["count.virq_injected"] += float64(st.VTimerInjected)
		c["count.ipis"] += float64(st.IPIsEmulated)
		for _, v := range vm.VCPUs() {
			vs := v.ExitStats()
			c["count.exits"] += float64(vs.Exits)
			c["kernel.preemptions"] += float64(vs.Preemptions)
		}
		if nic := vm.Device(dev.VirtNet); nic != nil {
			c["dev.rx_dma_frames"] += float64(nic.RxFrames)
			c["dev.rx_dropped"] += float64(nic.RxDropped)
		}
		if gm := vm.GuestMemory(); gm != nil && gm.Table != nil {
			c["mmu.cow_breaks"] += float64(gm.Table.CowBrokenPages())
		}
	}
	for _, cpu := range env.Board.CPUs {
		ts := cpu.MMU.Stats()
		c["tlb_hits"] += float64(ts.Hits)
		c["mmu.tlb_misses"] += float64(ts.Misses)
	}
	c["count.guest_insns"] += float64(guestInsns(env))
}

// ratio is hits/(hits+misses), 0 when nothing was looked up.
func ratio(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}
