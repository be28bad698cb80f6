package hv

import (
	"fmt"

	"kvmarm/internal/dev"
	"kvmarm/internal/gic"
)

// DeviceState is the serialized device-side state of a VM — everything
// guest-visible beyond registers and RAM. It mirrors the paper's §4.3/§4.4
// state inventory: the interrupt-controller model, the per-vCPU virtual
// timers (banked CTL/CVAL plus a re-basable virtual count), and the
// emulated devices with their in-flight I/O.
type DeviceState struct {
	// Family guards against cross-architecture migration: "arm" state
	// only restores into an ARM-family backend, "x86" into x86.
	Family string
	// IC is the interrupt-controller state (VDist on ARM, APIC on x86).
	IC *ICState
	// VTimers holds one entry per vCPU, in creation order.
	VTimers []VTimerState
	// Console is the UART output collected so far.
	Console []byte
	// Virt maps device class to virtio device state.
	Virt map[dev.VirtClass]*dev.VirtState
}

// VTimerState is one vCPU's virtual timer. CVAL is in virtual-counter
// units and carries over unchanged; VCNT is the virtual count at save
// time, from which the destination recomputes CNTVOFF against its own
// (unrelated) physical counter so guest virtual time stays continuous.
type VTimerState struct {
	CTL  uint32
	CVAL uint64
	VCNT uint64
}

// VIRQ is one virtual interrupt's distributor state in backend-neutral
// form. Pending covers instances staged in a saved list register at save
// time (the save side drains LRs first). ActiveOn records which vCPU's
// list register held an active shared interrupt (-1: none / private), so
// the destination can re-stage it where the guest's handler will EOI it.
type VIRQ struct {
	Enabled  bool
	Pending  bool
	Active   bool
	Level    bool
	Target   uint8
	ActiveOn int8
}

// ICState is the interrupt-controller distributor state: banked SGI/PPI
// state per vCPU, SGI source tracking, and the shared SPI array. The same
// shape serves the ARM VDist and the x86 APIC model.
type ICState struct {
	Enabled bool
	Priv    [][]VIRQ // [vcpu][gic.SPIBase]
	SGISrc  [][]int  // [vcpu][gic.NumSGIs]
	SPI     []VIRQ
}

// Family: VGIC/VDist state restores into any ARM backend, which is what
// makes split-mode → VHE migration work at all.
func (d *VDist) Family() string { return "arm" }

// SaveIC serializes the distributor with every vCPU paused. State still
// parked in list registers is folded back into the software model first:
// LRs are per-source-CPU hardware and do not travel.
func (d *VDist) SaveIC() *ICState {
	for i := range d.vcpus {
		d.drainLRs(i)
	}
	return d.saveState()
}

// RestoreIC installs a saved distributor state and, with a VGIC,
// re-stages the interrupts the guest had acknowledged: they must be
// sitting in list registers when the vCPU next runs, or its EOI writes
// will find nothing to deactivate.
func (d *VDist) RestoreIC(st *ICState) error {
	if err := d.restoreState(st); err != nil {
		return err
	}
	if d.Board.Cfg.HasVGIC {
		for i := range d.vcpus {
			d.restageActive(i)
		}
	}
	return nil
}

// drainLRs folds interrupts still staged in a vCPU's saved VGIC
// CPU-interface context back into the software model and clears the saved
// registers: a paused vCPU's ACKed or pending interrupts live there.
func (d *VDist) drainLRs(vcpu int) {
	saved := d.saved[vcpu]
	for i := range saved.LR {
		lr := &saved.LR[i]
		if lr.State == gic.LRInvalid {
			continue
		}
		if s := d.irq(vcpu, lr.VirtID); s != nil {
			if lr.State == gic.LRPending || lr.State == gic.LRPendingActive {
				s.pending = true
			}
			if lr.State == gic.LRActive || lr.State == gic.LRPendingActive {
				s.active = true
				s.activeOn = int8(vcpu)
			}
			d.resync(vcpu, lr.VirtID)
		}
		*lr = gic.ListReg{}
	}
}

// saveState serializes the software distributor model, after drainLRs has
// left no interrupt instance staged; instance counters (an edge raised
// while its predecessor was in flight) collapse into plain pending state.
func (d *VDist) saveState() *ICState {
	st := &ICState{Enabled: d.enabled, SPI: make([]VIRQ, len(d.spi))}
	for i := range d.vcpus {
		priv := make([]VIRQ, gic.SPIBase)
		for id := 0; id < gic.SPIBase; id++ {
			priv[id] = exportVIRQ(&d.priv[i][id])
		}
		st.Priv = append(st.Priv, priv)
		st.SGISrc = append(st.SGISrc, append([]int(nil), d.sgiSrc[i][:]...))
	}
	for i := range d.spi {
		st.SPI[i] = exportVIRQ(&d.spi[i])
	}
	return st
}

// restoreState installs a saved distributor state. The vCPU count must
// match the save side's.
func (d *VDist) restoreState(st *ICState) error {
	if len(st.Priv) != len(d.vcpus) {
		return fmt.Errorf("hv: interrupt state for %d vCPUs, VM has %d", len(st.Priv), len(d.vcpus))
	}
	if len(st.SPI) != len(d.spi) {
		return fmt.Errorf("hv: interrupt state with %d SPIs, VM has %d", len(st.SPI), len(d.spi))
	}
	d.enabled = st.Enabled
	for i := range d.vcpus {
		for id := 0; id < gic.SPIBase; id++ {
			importVIRQ(&d.priv[i][id], st.Priv[i][id])
		}
		copy(d.sgiSrc[i][:], st.SGISrc[i])
	}
	for i := range d.spi {
		importVIRQ(&d.spi[i], st.SPI[i])
	}
	d.ready.Rebuild()
	d.inflight.Rebuild()
	return nil
}

// restageActive rebuilds the list-register context for one destination
// vCPU: every interrupt the guest had ACKed (active) on the source must
// sit in a list register again, or its eventual EOI through the VGIC CPU
// interface would find nothing to retire. It writes into the vCPU's saved
// VGIC context (loaded by the next world switch in).
func (d *VDist) restageActive(vcpuID int) {
	vg := d.saved[vcpuID]
	lr := 0
	stage := func(id int, s *virqState) {
		if !s.active || lr >= len(vg.LR) {
			return
		}
		state := gic.LRActive
		if s.pending {
			state = gic.LRPendingActive
		}
		vg.LR[lr] = gic.ListReg{VirtID: id, State: state, EOIMaint: s.level}
		lr++
		s.inflight = true
		s.staged = s.raised
		d.resync(vcpuID, id)
	}
	for id := 0; id < gic.SPIBase; id++ {
		stage(id, &d.priv[vcpuID][id])
	}
	for i := range d.spi {
		if d.spi[i].activeOn == int8(vcpuID) {
			stage(gic.SPIBase+i, &d.spi[i])
		}
	}
}

func exportVIRQ(s *virqState) VIRQ {
	v := VIRQ{
		Enabled:  s.enabled,
		Pending:  s.pending || (s.inflight && s.raised > s.staged),
		Active:   s.active,
		Level:    s.level,
		Target:   s.target,
		ActiveOn: -1,
	}
	if s.active {
		v.ActiveOn = s.activeOn
	}
	return v
}

func importVIRQ(s *virqState, v VIRQ) {
	*s = virqState{enabled: v.Enabled, pending: v.Pending, active: v.Active,
		level: v.Level, target: v.Target, activeOn: v.ActiveOn}
	if v.Pending {
		s.raised = 1
	}
}
