package gic

import (
	"fmt"

	"kvmarm/internal/trace"
)

// This file implements the VGIC: the per-CPU hypervisor control interface
// (list registers, GICH_*) programmed by the hypervisor, and the virtual
// CPU interface (GICV_*) that guests use to ACK and EOI virtual interrupts
// without trapping (§2 "Interrupt Virtualization").

// VGICCpuIface returns the per-CPU VGIC state for hypervisor manipulation.
func (g *GIC) VGICCpuIface(cpu int) *VGICCpu {
	return &g.cpus[cpu].vgic
}

// vpendingFor reports whether any list register holds a pending virtual
// interrupt for cpu (drives the VIRQ line).
func (g *GIC) vpendingFor(cpu int) bool {
	v := &g.cpus[cpu].vgic
	if !g.HasVGIC || !v.HCREn {
		return false
	}
	for i := range v.LR {
		if v.LR[i].State == LRPending || v.LR[i].State == LRPendingActive {
			return true
		}
	}
	return false
}

// WriteLR programs list register idx on cpu (hypervisor control interface;
// one MMIO access).
func (g *GIC) WriteLR(cpu, idx int, lr ListReg) error {
	if !g.HasVGIC {
		return fmt.Errorf("gic: no VGIC on this hardware")
	}
	if idx < 0 || idx >= NumListRegs {
		return fmt.Errorf("gic: list register %d out of range", idx)
	}
	g.Stats.MMIOAccesses++
	g.Stats.LRWrites++
	if g.Trace != nil {
		g.Trace.Emit(trace.Event{Kind: trace.EvLRWrite, VCPU: -1, CPU: int16(cpu), Arg: uint64(lr.VirtID)})
	}
	g.cpus[cpu].vgic.LR[idx] = lr
	g.update()
	return nil
}

// ReadLR reads list register idx on cpu (one MMIO access). The hypervisor
// must read LRs back on world switch out, because the guest's ACK/EOI
// activity changes their state (§3.5).
func (g *GIC) ReadLR(cpu, idx int) (ListReg, error) {
	if !g.HasVGIC {
		return ListReg{}, fmt.Errorf("gic: no VGIC on this hardware")
	}
	if idx < 0 || idx >= NumListRegs {
		return ListReg{}, fmt.Errorf("gic: list register %d out of range", idx)
	}
	g.Stats.MMIOAccesses++
	g.Stats.LRReads++
	if g.Trace != nil {
		g.Trace.Emit(trace.Event{Kind: trace.EvLRRead, VCPU: -1, CPU: int16(cpu)})
	}
	return g.cpus[cpu].vgic.LR[idx], nil
}

// SetVGICEnabled writes GICH_HCR.En (one MMIO access).
func (g *GIC) SetVGICEnabled(cpu int, en bool) {
	g.Stats.MMIOAccesses++
	g.cpus[cpu].vgic.HCREn = en
	g.update()
}

// FreeLR returns the index of an empty list register on cpu, or -1.
func (g *GIC) FreeLR(cpu int) int {
	v := &g.cpus[cpu].vgic
	for i := range v.LR {
		if v.LR[i].State == LRInvalid {
			return i
		}
	}
	return -1
}

// VAck is the guest reading GICV_IAR: the highest-priority pending list
// register becomes active and its ID is returned, with NO trap to the
// hypervisor. Returns 1023 when spurious.
func (g *GIC) VAck(cpu int) int {
	g.Stats.MMIOAccesses++
	g.Stats.VAcks++
	v := &g.cpus[cpu].vgic
	if !g.HasVGIC || !v.HCREn {
		return 1023
	}
	best := -1
	for i := range v.LR {
		if v.LR[i].State == LRPending {
			if best < 0 || v.LR[i].VirtID < v.LR[best].VirtID {
				best = i
			}
		}
	}
	if best < 0 {
		return 1023
	}
	v.LR[best].State = LRActive
	g.update()
	return v.LR[best].VirtID
}

// VEOI is the guest writing GICV_EOIR: completes the virtual interrupt,
// again without trapping. If the LR was hardware-linked, the physical
// interrupt is deactivated too. If the LR requested EOI maintenance, the
// maintenance interrupt fires (used by the hypervisor to learn that the
// guest finished an interrupt it is multiplexing).
func (g *GIC) VEOI(cpu, virtID int) {
	g.Stats.MMIOAccesses++
	g.Stats.VEOIs++
	v := &g.cpus[cpu].vgic
	for i := range v.LR {
		lr := &v.LR[i]
		if lr.VirtID != virtID || (lr.State != LRActive && lr.State != LRPendingActive) {
			continue
		}
		if lr.State == LRPendingActive {
			lr.State = LRPending
		} else {
			lr.State = LRInvalid
		}
		if lr.HW {
			if s, err := g.irq(cpu, lr.PhysID); err == nil {
				s.active = false
				g.ready.Sync(cpu, lr.PhysID)
			}
		}
		if lr.EOIMaint {
			v.MISR |= 1
			g.raiseMaintenance(cpu)
		}
		g.update()
		return
	}
}

// raiseMaintenance asserts the maintenance PPI, which traps to the
// hypervisor like any physical interrupt while a VM runs.
func (g *GIC) raiseMaintenance(cpu int) {
	if g.Trace != nil {
		g.Trace.Emit(trace.Event{Kind: trace.EvVGICMaint, VCPU: -1, CPU: int16(cpu)})
	}
	s := &g.cpus[cpu].priv[IRQMaintenance]
	s.pending = true
	s.enabled = true
	g.ready.Sync(cpu, IRQMaintenance)
	g.update()
}

// SaveVGIC reads the full per-CPU VGIC state out of the hardware, counting
// the MMIO accesses this costs: NumVGICCtrlRegs control registers plus
// NumListRegs list registers. This is the dominant world-switch cost the
// paper measures (over half the ARM hypercall cost in Table 3) and the
// subject of its §6 recommendation "Make VGIC state access fast, or at
// least infrequent".
//
// When the hardware implements the summary register the paper proposes
// ("a summary register could be introduced describing the state of each
// virtual interrupt"), the save path reads it first and then touches only
// the list registers it reports live.
func (g *GIC) SaveVGIC(cpu int) (VGICCpu, uint64) {
	v := g.cpus[cpu].vgic
	if g.HasSummaryReg {
		accesses := uint64(1) // the summary register itself
		for i := 0; i < NumListRegs; i++ {
			if v.LR[i].State != LRInvalid {
				g.Stats.LRReads++
				accesses++
			}
		}
		// Control state is shadowed in memory by such hardware; only
		// HCR/VMCR round-trip.
		accesses += 2
		g.Stats.MMIOAccesses += accesses
		return v, g.traceVGICState(trace.EvVGICSave, cpu, accesses)
	}
	accesses := uint64(NumVGICCtrlRegs)
	for i := 0; i < NumListRegs; i++ {
		g.Stats.LRReads++
		accesses++
	}
	g.Stats.MMIOAccesses += accesses
	return v, g.traceVGICState(trace.EvVGICSave, cpu, accesses)
}

// traceVGICState converts an MMIO access count into its cycle cost,
// emitting a trace event carrying both when tracing is on.
func (g *GIC) traceVGICState(kind trace.Kind, cpu int, accesses uint64) uint64 {
	cost := accesses * CPUIfaceAccessCycles
	if g.Trace != nil {
		g.Trace.Emit(trace.Event{Kind: kind, VCPU: -1, CPU: int16(cpu), Arg: accesses, Cycles: cost})
	}
	return cost
}

// RestoreVGIC writes a previously saved per-CPU VGIC state back, with the
// same cost accounting as SaveVGIC.
func (g *GIC) RestoreVGIC(cpu int, st VGICCpu) uint64 {
	g.cpus[cpu].vgic = st
	if g.HasSummaryReg {
		accesses := uint64(2) // HCR + VMCR
		for i := 0; i < NumListRegs; i++ {
			if st.LR[i].State != LRInvalid {
				g.Stats.LRWrites++
				accesses++
			}
		}
		g.Stats.MMIOAccesses += accesses
		g.update()
		return g.traceVGICState(trace.EvVGICRestore, cpu, accesses)
	}
	accesses := uint64(NumVGICCtrlRegs)
	for i := 0; i < NumListRegs; i++ {
		g.Stats.LRWrites++
		accesses++
	}
	g.Stats.MMIOAccesses += accesses
	g.update()
	return g.traceVGICState(trace.EvVGICRestore, cpu, accesses)
}

// PendingLRCount reports how many list registers are in use on cpu; the
// lazy world-switch optimisation skips save/restore when zero.
func (g *GIC) PendingLRCount(cpu int) int {
	v := &g.cpus[cpu].vgic
	n := 0
	for i := range v.LR {
		if v.LR[i].State != LRInvalid {
			n++
		}
	}
	return n
}

// ClearMaintenance acknowledges the maintenance interrupt status.
func (g *GIC) ClearMaintenance(cpu int) {
	v := &g.cpus[cpu].vgic
	v.MISR = 0
	s := &g.cpus[cpu].priv[IRQMaintenance]
	s.pending = false
	s.active = false
	g.ready.Sync(cpu, IRQMaintenance)
	g.update()
}
