package hv

import (
	"fmt"

	"kvmarm/internal/gic"
	"kvmarm/internal/machine"
	"kvmarm/internal/mmu"
	"kvmarm/internal/trace"
)

// VDistVCPU is the small view of a vCPU the virtual distributor needs:
// enough to decide whether a pending virtual interrupt can be staged into
// list registers right now (PhysCPU), must wake a sleeping thread
// (Blocked/Wake), or has to kick a remote core. The kit's VCPUCore, which
// every backend vCPU embeds, satisfies it.
type VDistVCPU interface {
	VCPUID() int
	// PhysCPU is the physical CPU currently executing this vCPU, -1 when
	// it is not loaded anywhere.
	PhysCPU() int
	// Blocked reports whether the vCPU thread is parked in WFI.
	Blocked() bool
	Wake(fromHostCPU int)
}

// VDist is the virtual distributor of §3.5: "a software model of the GIC
// distributor as part of the highvisor". It exposes the same MMIO register
// map as the physical distributor to the VM (every VM access traps here),
// an interface for emulated devices to raise virtual interrupts, and it
// programs the hardware list registers whenever a vCPU runs. It lives in
// internal/hv because it is backend-independent: any ARM-style backend
// with a VGIC (split-mode or VHE) reuses the same software model.
type VDist struct {
	// Board is the physical machine (GIC, CPUs) the VM runs on.
	Board *machine.Board
	// VMID tags trace events.
	VMID uint8
	// Stats is the owning VM's counter block (IPIsEmulated).
	Stats *VMStats
	// Tracer returns the current tracer (nil when tracing is off); a
	// closure so AttachTracer after CreateVM still takes effect.
	Tracer func() *trace.Tracer

	vcpus []VDistVCPU
	// saved is each vCPU's parked VGIC CPU-interface context (the list
	// registers the world switch saved), for the state that sits there
	// while the vCPU is out: see PendingIRQ, SaveIC, RestoreIC.
	saved   []*gic.VGICCpu
	enabled bool

	// priv is the banked SGI/PPI state per vCPU.
	priv [][gic.SPIBase]virqState
	// sgiSrc records the requesting vCPU per pending SGI.
	sgiSrc [][gic.NumSGIs]int
	// spi is the shared interrupt state.
	spi []virqState
	// ready indexes the enabled, pending, inactive interrupts and inflight
	// the ones staged in a list register; resync keeps both in step with
	// the slots above.
	ready, inflight gic.ReadySet[*VDist]

	// Injections/SGIs/Flushes are delivery statistics.
	Injections uint64
	SGIs       uint64
	Flushes    uint64
}

type virqState struct {
	enabled  bool
	pending  bool
	active   bool
	inflight bool // staged in a hardware list register
	level    bool // device line level (level-triggered SPIs)
	target   uint8
	// raised/staged count interrupt instances: an edge raised after the
	// current instance was staged into a list register must survive that
	// instance's retirement (otherwise an IPI sent while the previous
	// one is being EOId is silently lost).
	raised uint64
	staged uint64
	// activeOn is the vCPU whose handler ACKed this interrupt, tracked
	// for migration (the destination re-stages active interrupts into
	// that vCPU's list registers; see devstate.go).
	activeOn int8
}

// undelivered reports whether a ready s still holds an instance no list
// register carries: it is not in flight, or an edge was raised after the
// in-flight instance was staged.
func (s *virqState) undelivered() bool { return !s.inflight || s.raised > s.staged }

const vdistSPIs = 96

// NewVDist builds the software distributor model for one VM.
func NewVDist(b *machine.Board, vmid uint8, stats *VMStats, tracer func() *trace.Tracer) *VDist {
	d := &VDist{Board: b, VMID: vmid, Stats: stats, Tracer: tracer,
		enabled: true, spi: make([]virqState, vdistSPIs)}
	d.ready = gic.NewReadySet(0, vdistSPIs, d, (*VDist).readyBit, (*VDist).routes)
	d.inflight = gic.NewReadySet(0, vdistSPIs, d, (*VDist).inflightBit, nil)
	return d
}

// readyBit is the ready-set rule: enabled, pending and not active.
func (d *VDist) readyBit(vcpu, id int) bool {
	s := d.irq(vcpu, id)
	return s.enabled && s.pending && !s.active
}

// inflightBit is the in-flight set's rule: staged in a list register.
func (d *VDist) inflightBit(vcpu, id int) bool { return d.irq(vcpu, id).inflight }

// MapVGIC maps the hardware-assisted interrupt interfaces the board has
// into a guest's Stage-2 table.
func MapVGIC(b *machine.Board, s2 *mmu.Builder) error {
	if b.Cfg.HasVGIC {
		// Map the VGIC virtual CPU interface at the IPA where guests
		// expect the GIC CPU interface (§3.5): ACK/EOI run without
		// traps, on the same driver the host uses.
		if err := s2.MapPage(uint32(machine.GICCPUBase), machine.GICVBase, mmu.MapFlags{W: true}); err != nil {
			return err
		}
	}
	if b.Cfg.HasDirectVIPI {
		// §6 extension: the direct virtual-SGI register is guest-visible.
		if err := s2.MapPage(uint32(machine.GICVSGIBase), machine.GICVSGIBase, mmu.MapFlags{W: true}); err != nil {
			return err
		}
	}
	return nil
}

// AddVCPU registers the next vCPU (must be called in vCPU-ID order) and
// the VGIC context its world switch saves into.
func (d *VDist) AddVCPU(v VDistVCPU, saved *gic.VGICCpu) {
	d.vcpus = append(d.vcpus, v)
	d.saved = append(d.saved, saved)
	d.priv = append(d.priv, [gic.SPIBase]virqState{})
	d.sgiSrc = append(d.sgiSrc, [gic.NumSGIs]int{})
	d.ready.AddCPU()
	d.inflight.AddCPU()
}

// resync re-derives id's ready-set bits after a write to its slot.
func (d *VDist) resync(vcpu, id int) {
	d.ready.Sync(vcpu, id)
	d.inflight.Sync(vcpu, id)
}

func (d *VDist) irq(vcpu, id int) *virqState {
	if id >= 0 && id < gic.SPIBase {
		return &d.priv[vcpu][id]
	}
	if id >= gic.SPIBase && id-gic.SPIBase < len(d.spi) {
		return &d.spi[id-gic.SPIBase]
	}
	return nil
}

// --- Register emulation (same map as gic.DistDevice) ---

// ReadReg emulates a VM read of the distributor.
func (d *VDist) ReadReg(v VDistVCPU, off uint64) uint32 {
	switch {
	case off == gic.GICDCtlr:
		if d.enabled {
			return 1
		}
		return 0
	case off == gic.GICDTyper:
		return uint32((gic.SPIBase+vdistSPIs)/32 - 1)
	case off >= gic.GICDIsenabler && off < gic.GICDIsenabler+0x80:
		word := int(off-gic.GICDIsenabler) / 4
		var bits uint32
		for b := 0; b < 32; b++ {
			if s := d.irq(v.VCPUID(), word*32+b); s != nil && s.enabled {
				bits |= 1 << b
			}
		}
		return bits
	case off >= gic.GICDItargetsr && off < gic.GICDItargetsr+0x400:
		id := int(off - gic.GICDItargetsr)
		var w uint32
		for i := 0; i < 4; i++ {
			if id+i >= gic.SPIBase {
				if s := d.irq(v.VCPUID(), id+i); s != nil {
					w |= uint32(s.target) << (8 * i)
				}
			}
		}
		return w
	}
	return 0
}

// WriteReg emulates a VM write to the distributor. SGIR writes are the
// virtual IPI path: "this will cause a trap to the hypervisor, which
// emulates the distributor access in software and programs the list
// registers on the receiving CPU's GIC hypervisor control interface".
func (d *VDist) WriteReg(v VDistVCPU, off uint64, val uint32) {
	switch {
	case off == gic.GICDCtlr:
		d.enabled = val&1 != 0
	case off >= gic.GICDIsenabler && off < gic.GICDIsenabler+0x80:
		d.writeEnable(v.VCPUID(), int(off-gic.GICDIsenabler)/4, val, true)
	case off >= gic.GICDIcenabler && off < gic.GICDIcenabler+0x80:
		d.writeEnable(v.VCPUID(), int(off-gic.GICDIcenabler)/4, val, false)
	case off >= gic.GICDItargetsr && off < gic.GICDItargetsr+0x400:
		id := int(off - gic.GICDItargetsr)
		for i := 0; i < 4; i++ {
			if id+i >= gic.SPIBase {
				if s := d.irq(v.VCPUID(), id+i); s != nil {
					s.target = uint8(val >> (8 * i))
				}
			}
		}
	case off == gic.GICDSgir:
		d.sendSGI(v, uint8(val>>gic.SGIRTargetShift), int(val&gic.SGIRIDMask))
	}
	d.DeliverAll()
}

func (d *VDist) writeEnable(vcpu, word int, bits uint32, enable bool) {
	for b := 0; b < 32; b++ {
		if bits&(1<<b) == 0 {
			continue
		}
		if s := d.irq(vcpu, word*32+b); s != nil {
			s.enabled = enable
			d.resync(vcpu, word*32+b)
		}
	}
}

// SendSGIFrom is the hardware-delivered virtual IPI entry point (the §6
// direct-VIPI extension): the interrupt-controller hardware itself stages
// the virtual interrupt into the receiving core's list registers — no
// exit on the sender, no kick on the receiver. Only a descheduled or
// WFI-blocked target still needs the hypervisor (the doorbell case).
func (d *VDist) SendSGIFrom(src VDistVCPU, mask uint8, id int) {
	d.sendSGI(src, mask, id)
	for i, v := range d.vcpus {
		if mask&(1<<i) == 0 {
			continue
		}
		if v.Blocked() && d.HasPendingFor(v) {
			v.Wake(d.Board.Current)
			continue
		}
		if phys := v.PhysCPU(); phys >= 0 {
			// The vSGI hardware and the list registers live in the
			// same GIC: reconcile retired interrupts against the live
			// registers, then stage the new one — all without any
			// CPU involvement.
			d.SyncFrom(v, d.Board.GIC.VGICCpuIface(phys))
			d.FlushTo(v, phys)
		}
	}
}

// sendSGI delivers a virtual IPI from vCPU src to every vCPU in the mask.
func (d *VDist) sendSGI(src VDistVCPU, mask uint8, id int) {
	d.SGIs++
	d.Stats.IPIsEmulated++
	if t := d.Tracer(); t != nil {
		t.Emit(trace.Event{Kind: trace.EvIPI, VM: d.VMID, VCPU: int16(src.VCPUID()),
			CPU: int16(d.Board.Current), Arg: uint64(id)})
	}
	for i := range d.vcpus {
		if mask&(1<<i) == 0 {
			continue
		}
		s := &d.priv[i][id]
		s.pending = true
		s.raised++
		d.sgiSrc[i][id] = src.VCPUID()
		d.resync(i, id)
	}
}

// --- Injection API (devices, virtual timer) ---

// InjectSPI raises/lowers a level-triggered shared virtual interrupt.
func (d *VDist) InjectSPI(id int, level bool) {
	s := d.irq(0, id)
	if s == nil {
		return
	}
	s.level = level
	if level {
		s.pending = true
		s.raised++
		d.Injections++
	}
	d.resync(0, id)
	d.DeliverAll()
}

// InjectPPI raises a private virtual interrupt on one vCPU (virtual timer).
func (d *VDist) InjectPPI(v VDistVCPU, id int) {
	s := &d.priv[v.VCPUID()][id]
	s.pending = true
	s.raised++
	d.Injections++
	d.resync(v.VCPUID(), id)
	d.DeliverTo(v)
}

// --- Delivery ---

// PendingIRQ reports whether any virtual interrupt awaits vCPU id: in the
// distributor's software state, or already staged in the list registers
// of its saved VGIC context. An interrupt is in the second category when
// it was flushed to the hardware just before the guest executed WFI — the
// exit then parks it inside the saved context, and the WFI block check
// must still see it or the vCPU sleeps through its wakeup.
func (d *VDist) PendingIRQ(vcpu int) bool {
	if d.HasPendingFor(d.vcpus[vcpu]) {
		return true
	}
	for i := range d.saved[vcpu].LR {
		if st := d.saved[vcpu].LR[i].State; st == gic.LRPending || st == gic.LRPendingActive {
			return true
		}
	}
	return false
}

// InjectTimer delivers vCPU id's virtual timer interrupt, waking it if
// blocked.
func (d *VDist) InjectTimer(fromHostCPU, vcpu int) {
	v := d.vcpus[vcpu]
	d.Stats.VTimerInjected++
	if t := d.Tracer(); t != nil {
		t.Emit(trace.Event{Kind: trace.EvVTimerInject, VM: d.VMID, VCPU: int16(vcpu),
			CPU: int16(fromHostCPU), Arg: gic.IRQVirtTimer})
	}
	d.InjectPPI(v, gic.IRQVirtTimer)
	v.Wake(fromHostCPU)
}

// HasPendingFor reports whether any enabled virtual interrupt is pending
// for v (wake condition for WFI-blocked vCPUs; software VIRQ line level on
// hardware without a VGIC).
func (d *VDist) HasPendingFor(v VDistVCPU) bool {
	if !d.enabled {
		return false
	}
	vc := v.VCPUID()
	for id := d.ready.Lowest(vc); id >= 0; id = d.ready.Next(vc, id+1) {
		if d.irq(vc, id).undelivered() {
			return true
		}
	}
	return false
}

// routes is the virtual distributor's SPI routing rule: the target mask,
// where an unprogrammed (zero) mask means vCPU 0.
func (d *VDist) routes(id, vcpu int) bool {
	t := d.spi[id-gic.SPIBase].target
	return t == 0 && vcpu == 0 || t&(1<<vcpu) != 0
}

// DeliverAll pushes pending interrupts toward every vCPU.
func (d *VDist) DeliverAll() {
	for _, v := range d.vcpus {
		d.DeliverTo(v)
	}
}

// DeliverTo makes v see its pending virtual interrupts: a WFI-blocked
// vCPU's thread is woken; a vCPU running on the local core picks the
// interrupt up when it re-enters (list registers are flushed at every
// world switch in); a vCPU running on a REMOTE core is kicked out of the
// guest with a physical IPI so its next entry programs the list registers
// — which is why the paper's IPI micro-benchmark costs two world switches
// on each side (Table 3) and why §6 asks hardware to "completely avoid
// IPI traps".
func (d *VDist) DeliverTo(v VDistVCPU) {
	if v.Blocked() && d.HasPendingFor(v) {
		v.Wake(d.Board.Current)
		return
	}
	phys := v.PhysCPU()
	if phys < 0 {
		return
	}
	if !d.Board.Cfg.HasVGIC {
		d.Board.CPUs[phys].VIRQLine = d.HasPendingFor(v)
		if phys != d.Board.Current && d.HasPendingFor(v) {
			_ = d.Board.GIC.SendSGI(d.Board.Current, 1<<uint(phys), 2 /* kernel.IPICall */)
		}
		return
	}
	if phys == d.Board.Current {
		// Local: the in-flight exit handler re-enters and flushes.
		return
	}
	if d.HasPendingFor(v) {
		// Kick the remote core out of guest mode (vcpu_kick).
		_ = d.Board.GIC.SendSGI(d.Board.Current, 1<<uint(phys), 2 /* kernel.IPICall */)
	}
}

// FlushTo programs pending interrupts for v into free list registers of
// physical CPU phys. Each LR write is a real (slow) MMIO access.
func (d *VDist) FlushTo(v VDistVCPU, phys int) {
	g := d.Board.GIC
	d.Flushes++
	vc := v.VCPUID()
	for id := d.ready.Lowest(vc); id >= 0; id = d.ready.Next(vc, id+1) {
		s := d.irq(vc, id)
		if s.inflight {
			continue
		}
		lr := g.FreeLR(phys)
		if lr < 0 {
			return
		}
		if err := g.WriteLR(phys, lr, gic.ListReg{VirtID: id, State: gic.LRPending, EOIMaint: s.level}); err != nil {
			return
		}
		d.Board.CPUs[phys].Charge(gic.CPUIfaceAccessCycles)
		s.inflight = true
		s.staged = s.raised
		d.resync(vc, id)
	}
}

// SyncFrom reconciles the software model with list-register state read
// back at world switch out: completed LRs retire their interrupts; ones
// still pending/active return to software state for the next entry.
// Every in-flight shared interrupt is reconciled, whichever vCPU staged
// it.
func (d *VDist) SyncFrom(v VDistVCPU, saved *gic.VGICCpu) {
	vc := v.VCPUID()
	for id := d.inflight.Lowest(vc); id >= 0; id = d.inflight.Next(vc, id+1) {
		if lrLive(saved, id) {
			// Still pending/active in the LR: leave inflight; the
			// state will be restored with the VGIC context at next
			// entry.
			continue
		}
		// Delivered and EOId. Level interrupts still asserted, and
		// edges raised after this instance was staged, become pending
		// again.
		s := d.irq(vc, id)
		s.inflight = false
		s.active = false
		s.pending = s.level || s.raised > s.staged
		d.resync(vc, id)
	}
}

// lrLive reports whether the saved list registers still hold id: the last
// register naming it is not invalid. An invalid register naming ID 0 is an
// empty one and names nothing.
func lrLive(saved *gic.VGICCpu, id int) bool {
	for i := len(saved.LR) - 1; i >= 0; i-- {
		lr := &saved.LR[i]
		if lr.VirtID == id && (id != 0 || lr.State != gic.LRInvalid) {
			return lr.State != gic.LRInvalid
		}
	}
	return false
}

// --- Software CPU-interface emulation (no VGIC hardware) ---

// AckEmu emulates a GICC IAR read for hardware without a VGIC: highest
// pending virtual interrupt becomes active.
func (d *VDist) AckEmu(v VDistVCPU) (id, src int) {
	best := d.ready.Lowest(v.VCPUID())
	if best < 0 {
		return 1023, 0
	}
	bs := d.irq(v.VCPUID(), best)
	bs.pending = bs.level
	if best < gic.SPIBase {
		bs.pending = false
	}
	bs.active = true
	bs.activeOn = int8(v.VCPUID())
	d.resync(v.VCPUID(), best)
	if best < gic.NumSGIs {
		return best, d.sgiSrc[v.VCPUID()][best]
	}
	return best, 0
}

// EOIEmu emulates a GICC EOIR write without a VGIC.
func (d *VDist) EOIEmu(v VDistVCPU, id int) {
	if s := d.irq(v.VCPUID(), id); s != nil {
		s.active = false
		if s.level {
			s.pending = true
		}
		d.resync(v.VCPUID(), id)
	}
}

// DebugIRQ exposes one interrupt's software state for diagnostics.
func (d *VDist) DebugIRQ(vcpu, id int) string {
	s := d.irq(vcpu, id)
	if s == nil {
		return "nil"
	}
	return fmt.Sprintf("{en:%v pend:%v act:%v inflight:%v}", s.enabled, s.pending, s.active, s.inflight)
}

// DebugPending exposes HasPendingFor for diagnostics.
func (d *VDist) DebugPending(v VDistVCPU) bool { return d.HasPendingFor(v) }
