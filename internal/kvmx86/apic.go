package kvmx86

import (
	"fmt"

	"kvmarm/internal/gic"
	"kvmarm/internal/hv"
	"kvmarm/internal/trace"
)

// APIC is KVM x86's in-kernel interrupt-controller emulation (pre-APICv:
// no hardware assist at all). Compared with the ARM virtual distributor it
// plays a double role: it is both the "distributor" (routing, IPIs via ICR
// writes) and the CPU interface (vector delivery through the IDT on entry,
// EOI by trapped MMIO write).
type APIC struct {
	vm *VM

	priv   [][gic.SPIBase]virqState
	sgiSrc [][gic.NumSGIs]int
	spi    []virqState
	// ready indexes the enabled, pending, inactive interrupts; every
	// slot write re-derives its ID's bit (ready.Sync).
	ready gic.ReadySet[*APIC]

	Injections uint64
	IPIs       uint64
	EOIs       uint64
}

type virqState struct {
	enabled bool
	pending bool
	active  bool
	level   bool
	target  uint8
}

const (
	apicSPIs = 96
	// apicTimerIRQ is the per-vCPU timer vector (the board's virtual-timer
	// PPI, which backs the emulated APIC timer).
	apicTimerIRQ = 27
)

func newAPIC(vm *VM) *APIC {
	a := &APIC{vm: vm, spi: make([]virqState, apicSPIs)}
	a.ready = gic.NewReadySet(0, apicSPIs, a, (*APIC).readyBit, (*APIC).routes)
	return a
}

// readyBit is the ready-set rule: enabled, pending and not active.
func (a *APIC) readyBit(vcpu, id int) bool {
	s := a.irq(vcpu, id)
	return s.enabled && s.pending && !s.active
}

func (a *APIC) addVCPU() {
	a.priv = append(a.priv, [gic.SPIBase]virqState{})
	a.sgiSrc = append(a.sgiSrc, [gic.NumSGIs]int{})
	a.ready.AddCPU()
}

func (a *APIC) irq(vcpu, id int) *virqState {
	if id >= 0 && id < gic.SPIBase {
		return &a.priv[vcpu][id]
	}
	if id >= gic.SPIBase && id-gic.SPIBase < len(a.spi) {
		return &a.spi[id-gic.SPIBase]
	}
	return nil
}

// ReadReg / WriteReg emulate the guest's interrupt-controller MMIO window
// (reusing the GIC register map that the shared guest kernel drives; on
// real x86 this is LAPIC/IOAPIC programming — the trap pattern and cost
// structure are what matter for the comparison).
func (a *APIC) ReadReg(v *VCPU, off uint64) uint32 {
	switch {
	case off == gic.GICDCtlr:
		return 1
	case off >= gic.GICDIsenabler && off < gic.GICDIsenabler+0x80:
		word := int(off-gic.GICDIsenabler) / 4
		var bits uint32
		for bit := 0; bit < 32; bit++ {
			if s := a.irq(v.ID, word*32+bit); s != nil && s.enabled {
				bits |= 1 << bit
			}
		}
		return bits
	}
	return 0
}

// WriteReg handles guest interrupt-controller writes; SGIR is the ICR
// (IPI) path, which the paper identifies as especially expensive on x86:
// the exit, the decode, the emulation with locking, and the costly
// physical IPI underneath.
func (a *APIC) WriteReg(v *VCPU, off uint64, val uint32) {
	switch {
	case off >= gic.GICDIsenabler && off < gic.GICDIsenabler+0x80:
		a.writeEnable(v.ID, int(off-gic.GICDIsenabler)/4, val, true)
	case off >= gic.GICDIcenabler && off < gic.GICDIcenabler+0x80:
		a.writeEnable(v.ID, int(off-gic.GICDIcenabler)/4, val, false)
	case off >= gic.GICDItargetsr && off < gic.GICDItargetsr+0x400:
		id := int(off - gic.GICDItargetsr)
		for i := 0; i < 4; i++ {
			if id+i >= gic.SPIBase {
				if s := a.irq(v.ID, id+i); s != nil {
					s.target = uint8(val >> (8 * i))
				}
			}
		}
	case off == gic.GICDSgir:
		a.sendIPI(v, uint8(val>>gic.SGIRTargetShift), int(val&gic.SGIRIDMask))
	}
	a.deliverAll()
}

func (a *APIC) writeEnable(vcpu, word int, bits uint32, enable bool) {
	for b := 0; b < 32; b++ {
		if bits&(1<<b) == 0 {
			continue
		}
		if s := a.irq(vcpu, word*32+b); s != nil {
			s.enabled = enable
			a.ready.Sync(vcpu, word*32+b)
		}
	}
}

// sendIPI is an ICR write: mark the vector pending on the targets and pay
// for the physical IPI that kicks a running target out of the guest.
func (a *APIC) sendIPI(src *VCPU, mask uint8, id int) {
	a.IPIs++
	a.vm.Stats.IPIsEmulated++
	x := a.vm.kvm
	x.Stats.IPIExits++
	if t := x.Trace; t != nil {
		t.Emit(trace.Event{Kind: trace.EvIPI, VM: a.vm.VMID, VCPU: int16(src.ID),
			CPU: int16(x.Board.Current), Arg: uint64(id)})
	}
	for i := range a.vm.vcpus {
		if mask&(1<<i) == 0 {
			continue
		}
		s := &a.priv[i][id]
		s.pending = true
		a.sgiSrc[i][id] = src.ID
		a.ready.Sync(i, id)
	}
	// The physical IPI underneath (sender-side cost; charged to the core
	// executing the ICR emulation — the sender exited to root mode).
	x.Board.CPUs[x.Board.Current].Charge(x.P.HWIPI)
}

// InjectSPI raises/lowers a level-triggered device interrupt.
func (a *APIC) InjectSPI(id int, level bool) {
	s := a.irq(0, id)
	if s == nil {
		return
	}
	s.level = level
	if level {
		s.pending = true
		a.Injections++
	}
	a.ready.Sync(0, id)
	a.deliverAll()
}

// InjectTimer raises vCPU id's APIC-timer interrupt, waking it if halted.
func (a *APIC) InjectTimer(fromHostCPU, vcpu int) {
	v := a.vm.vcpus[vcpu]
	a.vm.Stats.VTimerInjected++
	if t := a.vm.kvm.Trace; t != nil {
		t.Emit(trace.Event{Kind: trace.EvVTimerInject, VM: a.vm.VMID, VCPU: int16(vcpu),
			CPU: int16(fromHostCPU), Arg: apicTimerIRQ})
	}
	a.priv[vcpu][apicTimerIRQ].pending = true
	a.ready.Sync(vcpu, apicTimerIRQ)
	a.Injections++
	a.deliverTo(v)
	v.Wake(fromHostCPU)
}

// PendingIRQ is the HLT block check.
func (a *APIC) PendingIRQ(vcpu int) bool { return a.hasPendingFor(a.vm.vcpus[vcpu]) }

// Family: APIC state only restores into another x86 instance (the device
// inventory differs from ARM's: APIC instead of a virtual distributor).
func (a *APIC) Family() string { return "x86" }

// routes is the APIC's SPI routing rule: the target mask, where an
// unprogrammed (zero) mask means vCPU 0.
func (a *APIC) routes(id, vcpu int) bool {
	t := a.spi[id-gic.SPIBase].target
	return t == 0 && vcpu == 0 || t&(1<<vcpu) != 0
}

func (a *APIC) hasPendingFor(v *VCPU) bool { return a.ready.Lowest(v.ID) >= 0 }

func (a *APIC) deliverAll() {
	for _, v := range a.vm.vcpus {
		a.deliverTo(v)
	}
}

// deliverTo makes v notice pending interrupts: if running in the guest,
// assert its (software) interrupt line; if halted, wake its thread.
func (a *APIC) deliverTo(v *VCPU) {
	x := a.vm.kvm
	if v.Blocked() && a.hasPendingFor(v) {
		v.Wake(x.Board.Current)
		return
	}
	phys := v.PhysCPU()
	if phys < 0 {
		return
	}
	x.Board.CPUs[phys].VIRQLine = a.hasPendingFor(v)
	if phys != x.Board.Current && a.hasPendingFor(v) {
		// Kick the remote core out of non-root mode (vcpu_kick).
		_ = x.Board.GIC.SendSGI(x.Board.Current, 1<<uint(phys), 2)
	}
}

// Ack is the IDT-vectoring delivery: the guest learns the vector as part
// of taking the interrupt, with no acknowledge read and NO exit ("x86
// does not [need an ACK] because the source is directly indicated by the
// interrupt descriptor table entry").
func (a *APIC) Ack(v *VCPU) (id, src int) {
	best := a.ready.Lowest(v.ID)
	if best < 0 {
		return 1023, 0
	}
	bs := a.irq(v.ID, best)
	bs.pending = bs.level
	if best < gic.SPIBase {
		bs.pending = false
	}
	bs.active = true
	a.ready.Sync(v.ID, best)
	if best < gic.NumSGIs {
		return best, a.sgiSrc[v.ID][best]
	}
	return best, 0
}

// EOI completes an interrupt; reaching here cost a full exit (charged by
// the caller) — the mechanism behind Table 3's EOI+ACK row on x86.
func (a *APIC) EOI(v *VCPU, id int) {
	a.EOIs++
	if s := a.irq(v.ID, id); s != nil {
		s.active = false
		if s.level {
			s.pending = true
		}
		a.ready.Sync(v.ID, id)
	}
	a.deliverTo(v)
}

// SaveIC exports the APIC model for migration in the backend-neutral
// ICState shape shared with the ARM virtual distributor. x86 has no list
// registers, so there is nothing to drain: pending/active state is all in
// software already. ActiveOn is meaningless here (EOI is a trapped MMIO
// write on any vCPU) and is exported as -1.
func (a *APIC) SaveIC() *hv.ICState {
	st := &hv.ICState{Enabled: true}
	export := func(s *virqState) hv.VIRQ {
		return hv.VIRQ{Enabled: s.enabled, Pending: s.pending, Active: s.active,
			Level: s.level, Target: s.target, ActiveOn: -1}
	}
	for i := range a.priv {
		row := make([]hv.VIRQ, gic.SPIBase)
		for id := 0; id < gic.SPIBase; id++ {
			row[id] = export(&a.priv[i][id])
		}
		st.Priv = append(st.Priv, row)
		st.SGISrc = append(st.SGISrc, append([]int(nil), a.sgiSrc[i][:]...))
	}
	for i := range a.spi {
		st.SPI = append(st.SPI, export(&a.spi[i]))
	}
	return st
}

// RestoreIC installs a saved APIC (or compatible) model. vCPUs must
// already exist so the per-vCPU banks line up.
func (a *APIC) RestoreIC(st *hv.ICState) error {
	if len(st.Priv) != len(a.priv) || len(st.SGISrc) != len(a.priv) {
		return fmt.Errorf("kvmx86: snapshot has %d vCPU interrupt banks, VM has %d", len(st.Priv), len(a.priv))
	}
	if len(st.SPI) != len(a.spi) {
		return fmt.Errorf("kvmx86: snapshot has %d SPIs, APIC has %d", len(st.SPI), len(a.spi))
	}
	imp := func(s *virqState, v hv.VIRQ) {
		*s = virqState{enabled: v.Enabled, pending: v.Pending, active: v.Active,
			level: v.Level, target: v.Target}
	}
	for i := range a.priv {
		for id := 0; id < gic.SPIBase; id++ {
			imp(&a.priv[i][id], st.Priv[i][id])
		}
		copy(a.sgiSrc[i][:], st.SGISrc[i])
	}
	for i := range a.spi {
		imp(&a.spi[i], st.SPI[i])
	}
	a.ready.Rebuild()
	a.deliverAll()
	return nil
}
