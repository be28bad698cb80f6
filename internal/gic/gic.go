// Package gic models the ARM Generic Interrupt Controller v2.0 with its
// hardware virtualization support (the VGIC), per §2 "Interrupt
// Virtualization" of the paper.
//
// The GIC has one distributor and a per-CPU interface; both are reached by
// MMIO. The distributor routes Software Generated Interrupts (SGIs 0–15,
// the IPIs), Private Peripheral Interrupts (PPIs 16–31, e.g. the generic
// timers) and Shared Peripheral Interrupts (SPIs 32+, devices). A CPU
// learns the source of an interrupt by reading the ACK (IAR) register of
// its CPU interface and must write the same value to the EOI register
// before the interrupt can be raised again.
//
// The VGIC adds, per CPU, a hypervisor control interface holding a small
// number of *list registers*, and a virtual CPU interface that VMs are
// given instead of the physical one. The hypervisor programs virtual
// interrupts into the list registers; the guest ACKs and EOIs them through
// the virtual CPU interface without trapping. The distributor is NOT
// virtualized: every guest distributor access must trap and be emulated in
// software (internal/core's virtual distributor).
package gic

import (
	"fmt"

	"kvmarm/internal/trace"
)

// Interrupt ID layout (GICv2).
const (
	NumSGIs = 16
	NumPPIs = 16
	SPIBase = NumSGIs + NumPPIs

	// Standard PPI assignments on a Cortex-A15.
	IRQVirtTimer   = 27 // virtual timer PPI
	IRQHypTimer    = 26
	IRQPhysTimer   = 30 // non-secure physical timer PPI
	IRQMaintenance = 25 // VGIC maintenance interrupt
)

// ListRegState is the state field of a VGIC list register.
type ListRegState uint8

// List register states.
const (
	LRInvalid ListRegState = iota
	LRPending
	LRActive
	LRPendingActive
)

// ListReg is one VGIC list register: a virtual interrupt staged for a VM.
type ListReg struct {
	VirtID int
	State  ListRegState
	// HW links the virtual interrupt to a physical one: the guest's EOI
	// then also deactivates the physical interrupt. KVM/ARM does not
	// rely on this for the virtual timer (the paper notes the virtual
	// timer raises a *hardware* interrupt that must be forwarded in
	// software), so most injections have HW=false.
	HW     bool
	PhysID int
	// EOIMaint requests a maintenance interrupt when the guest EOIs.
	EOIMaint bool
}

// NumListRegs is 4, per Table 1 ("4 VGIC List Registers" on the A15).
const NumListRegs = 4

// NumVGICCtrlRegs is the Table 1 count of VGIC control-interface registers
// saved/restored on a world switch (GICH_HCR, VMCR, MISR, APR and the
// per-LR shadow state among others on real hardware; we keep the count).
const NumVGICCtrlRegs = 16

type irqState struct {
	enabled bool
	pending bool
	active  bool
	// target is a CPU bitmask (SPIs only; SGI/PPI are banked per CPU).
	target uint8
	// level holds the current input line level for level-triggered SPIs.
	level bool
}

type cpuState struct {
	// Banked SGI/PPI state.
	priv [SPIBase]irqState
	// sgiSource records the requesting CPU per pending SGI.
	sgiSource [NumSGIs]int
	// ctlEnabled gates the physical CPU interface.
	ctlEnabled bool

	// VGIC state (the hypervisor control interface + virtual CPU
	// interface of this CPU).
	vgic VGICCpu
}

// VGICCpu is the per-CPU VGIC hardware state.
type VGICCpu struct {
	HCREn bool // GICH_HCR.En
	VMCR  uint32
	// APR and the other control registers are modeled as opaque words so
	// that save/restore has the Table 1 cost shape.
	Ctrl [NumVGICCtrlRegs - 2]uint32
	LR   [NumListRegs]ListReg
	// MISR: maintenance interrupt status (bit0 = EOI, bit1 = underflow).
	MISR uint32
	// UIE: underflow interrupt enable.
	UIE bool
}

// GIC is the distributor plus all CPU interfaces.
type GIC struct {
	NumCPUs int
	NumIRQs int

	// HasVGIC mirrors whether the silicon includes GICv2.0
	// virtualization extensions; the "ARM no VGIC" configuration of the
	// paper's evaluation clears it.
	HasVGIC bool
	// HasSummaryReg enables the hypothetical summary register of §6
	// ("Make VGIC state access fast, or at least infrequent"): one read
	// reports which list registers are live, so the world switch skips
	// the dead ones.
	HasSummaryReg bool
	// HasDirectVIPI enables the hypothetical direct-virtual-IPI hardware
	// of §6 ("Completely avoid IPI traps"): guests send virtual SGIs
	// through a dedicated register without trapping.
	HasDirectVIPI bool

	ctlEnabled bool
	spi        []irqState
	cpus       []cpuState
	// ready indexes the enabled, pending, inactive interrupts (readyBit).
	ready ReadySet[*GIC]

	// SetIRQLine is wired by the board to drive each CPU's IRQ input.
	SetIRQLine func(cpu int, level bool)
	// SetVIRQLine drives each CPU's virtual IRQ input (from the VGIC).
	SetVIRQLine func(cpu int, level bool)

	// Trace, when non-nil, receives VGIC events (maintenance interrupts,
	// list-register traffic, state save/restore).
	Trace *trace.Tracer

	Stats Stats
}

// Stats counts GIC operations for the instrumentation behind Table 3.
type Stats struct {
	MMIOAccesses uint64 // distributor + CPU interface register accesses
	SGIsSent     uint64
	Acks         uint64
	EOIs         uint64
	VAcks        uint64
	VEOIs        uint64
	LRWrites     uint64
	LRReads      uint64
}

// New creates a GIC for numCPUs cores (at most MaxCPUs) and numIRQs
// interrupt IDs (at most 160: 128 SPIs).
func New(numCPUs, numIRQs int) *GIC {
	if numIRQs < SPIBase {
		numIRQs = SPIBase
	}
	g := &GIC{
		NumCPUs: numCPUs,
		NumIRQs: numIRQs,
		HasVGIC: true,
		spi:     make([]irqState, numIRQs-SPIBase),
		cpus:    make([]cpuState, numCPUs),
	}
	for i := range g.cpus {
		g.cpus[i].ctlEnabled = true
	}
	g.ctlEnabled = true
	g.ready = NewReadySet(numCPUs, numIRQs-SPIBase, g, (*GIC).readyBit, (*GIC).routes)
	return g
}

// readyBit is the GIC's ready-set rule: an interrupt can be signalled
// when it is enabled, pending and not active.
func (g *GIC) readyBit(cpu, id int) bool {
	var s *irqState
	if id < SPIBase {
		s = &g.cpus[cpu].priv[id]
	} else {
		s = &g.spi[id-SPIBase]
	}
	return s.enabled && s.pending && !s.active
}

// routes is the GIC's SPI routing rule: the ITARGETSR CPU mask.
func (g *GIC) routes(id, cpu int) bool { return g.spi[id-SPIBase].target&(1<<cpu) != 0 }

func (g *GIC) irq(cpu, id int) (*irqState, error) {
	switch {
	case id < 0 || id >= g.NumIRQs:
		return nil, fmt.Errorf("gic: interrupt id %d out of range", id)
	case id < SPIBase:
		return &g.cpus[cpu].priv[id], nil
	default:
		return &g.spi[id-SPIBase], nil
	}
}

// EnableIRQ enables an interrupt (distributor ISENABLER).
func (g *GIC) EnableIRQ(cpu, id int) error {
	s, err := g.irq(cpu, id)
	if err != nil {
		return err
	}
	s.enabled = true
	g.ready.Sync(cpu, id)
	g.update()
	return nil
}

// DisableIRQ disables an interrupt.
func (g *GIC) DisableIRQ(cpu, id int) error {
	s, err := g.irq(cpu, id)
	if err != nil {
		return err
	}
	s.enabled = false
	g.ready.Sync(cpu, id)
	g.update()
	return nil
}

// SetTarget routes an SPI to the CPUs in mask (distributor ITARGETSR).
func (g *GIC) SetTarget(id int, mask uint8) error {
	if id < SPIBase || id >= g.NumIRQs {
		return fmt.Errorf("gic: SetTarget on non-SPI %d", id)
	}
	g.spi[id-SPIBase].target = mask
	g.update()
	return nil
}

// RaiseSPI asserts/deasserts a shared peripheral interrupt line (devices).
func (g *GIC) RaiseSPI(id int, level bool) error {
	if id < SPIBase || id >= g.NumIRQs {
		return fmt.Errorf("gic: RaiseSPI on non-SPI %d", id)
	}
	s := &g.spi[id-SPIBase]
	s.level = level
	if level {
		s.pending = true
	}
	g.ready.Sync(0, id)
	g.update()
	return nil
}

// RaisePPI asserts a private peripheral interrupt on one CPU (timers).
func (g *GIC) RaisePPI(cpu, id int, level bool) error {
	if id < NumSGIs || id >= SPIBase {
		return fmt.Errorf("gic: RaisePPI on non-PPI %d", id)
	}
	s := &g.cpus[cpu].priv[id]
	s.level = level
	if level {
		s.pending = true
	} else {
		s.pending = false
	}
	g.ready.Sync(cpu, id)
	g.update()
	return nil
}

// SendSGI delivers a software-generated interrupt (IPI) from src to every
// CPU in targetMask. This is the distributor GICD_SGIR path: from a VM it
// always traps to the hypervisor (the cost the paper's §6 recommends
// eliminating).
func (g *GIC) SendSGI(src int, targetMask uint8, id int) error {
	if id < 0 || id >= NumSGIs {
		return fmt.Errorf("gic: SGI id %d out of range", id)
	}
	g.Stats.SGIsSent++
	for cpu := 0; cpu < g.NumCPUs; cpu++ {
		if targetMask&(1<<cpu) == 0 {
			continue
		}
		s := &g.cpus[cpu].priv[id]
		s.pending = true
		g.cpus[cpu].sgiSource[id] = src
		g.ready.Sync(cpu, id)
	}
	g.update()
	return nil
}

// pendingFor returns the highest-priority (lowest-ID) pending enabled
// interrupt for cpu, or -1.
func (g *GIC) pendingFor(cpu int) int {
	if !g.ctlEnabled || !g.cpus[cpu].ctlEnabled {
		return -1
	}
	return g.ready.Lowest(cpu)
}

// update recomputes every CPU's IRQ and VIRQ lines.
func (g *GIC) update() {
	for cpu := 0; cpu < g.NumCPUs; cpu++ {
		if g.SetIRQLine != nil {
			g.SetIRQLine(cpu, g.pendingFor(cpu) >= 0)
		}
		if g.SetVIRQLine != nil {
			g.SetVIRQLine(cpu, g.vpendingFor(cpu))
		}
	}
}

// Ack reads the IAR of cpu's physical CPU interface: returns the interrupt
// ID (and source CPU for SGIs), marking it active. Returns 1023 (spurious)
// if nothing is pending.
func (g *GIC) Ack(cpu int) (id, srcCPU int) {
	g.Stats.MMIOAccesses++
	g.Stats.Acks++
	id = g.pendingFor(cpu)
	if id < 0 {
		return 1023, 0
	}
	s, _ := g.irq(cpu, id)
	s.pending = s.level // level-triggered lines stay pending while high
	if id < SPIBase {
		s.pending = false
	}
	s.active = true
	g.ready.Sync(cpu, id)
	if id < NumSGIs {
		srcCPU = g.cpus[cpu].sgiSource[id]
	}
	g.update()
	return id, srcCPU
}

// EOI completes interrupt id on cpu's physical CPU interface.
func (g *GIC) EOI(cpu, id int) {
	g.Stats.MMIOAccesses++
	g.Stats.EOIs++
	if s, err := g.irq(cpu, id); err == nil {
		s.active = false
		if s.level {
			s.pending = true
		}
		g.ready.Sync(cpu, id)
	}
	g.update()
}

// PendingIRQ exposes pendingFor for the host kernel's fast path ("is there
// anything to do") without modeling a full priority-mask dance.
func (g *GIC) PendingIRQ(cpu int) int { return g.pendingFor(cpu) }

// DistAccessCycles is the MMIO cost of one distributor register access.
const DistAccessCycles = 75

// CPUIfaceAccessCycles is the MMIO cost of one access to the GIC CPU
// interface or the VGIC hypervisor control interface (list registers):
// the slow peripheral path whose cost §6 recommends reducing ("Make VGIC
// state access fast, or at least infrequent").
const CPUIfaceAccessCycles = 75

// VCPUIfaceAccessCycles is the cost of one guest access to the VGIC
// virtual CPU interface (the ACK/EOI data path), slower still than the
// control interface on the A15.
const VCPUIfaceAccessCycles = 180
