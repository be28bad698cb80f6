package gic

import "fmt"

// Distributor register map (offsets from the distributor base). The layout
// follows GICv2 conventions; internal/core's virtual distributor exposes
// the identical map to VMs (§3.5: "an MMIO interface to the VM identical
// to that of the physical GIC distributor").
const (
	GICDCtlr      = 0x000
	GICDTyper     = 0x004
	GICDIsenabler = 0x100 // + 4*n, bit per interrupt
	GICDIcenabler = 0x180
	GICDIspendr   = 0x200
	GICDIcpendr   = 0x280
	GICDItargetsr = 0x800 // + id, byte per interrupt (word accessed)
	GICDSgir      = 0xF00
	// DistSize is the size of the distributor region.
	DistSize = 0x1000
)

// SGIR fields.
const (
	SGIRTargetShift = 16
	SGIRIDMask      = 0xF
)

// AccessorFunc reports which CPU is driving the current MMIO access;
// distributor word 0 of the enable/pend banks is banked per CPU (SGI/PPI).
type AccessorFunc func() int

// DistDevice adapts the distributor to the MMIO bus for the host's use.
type DistDevice struct {
	G        *GIC
	Accessor AccessorFunc
}

// Name implements bus.Device.
func (d *DistDevice) Name() string { return "gic-distributor" }

// AccessCycles implements bus.Device.
func (d *DistDevice) AccessCycles() uint64 { return DistAccessCycles }

func (d *DistDevice) cpu() int {
	if d.Accessor != nil {
		return d.Accessor()
	}
	return 0
}

// ReadReg implements bus.Device.
func (d *DistDevice) ReadReg(offset uint64, size int) (uint64, error) {
	g := d.G
	g.Stats.MMIOAccesses++
	switch {
	case offset == GICDCtlr:
		if g.ctlEnabled {
			return 1, nil
		}
		return 0, nil
	case offset == GICDTyper:
		return uint64(g.NumIRQs/32 - 1), nil
	case offset >= GICDIsenabler && offset < GICDIsenabler+0x80:
		n := int(offset-GICDIsenabler) / 4
		return uint64(d.enableBits(n)), nil
	case offset >= GICDItargetsr && offset < GICDItargetsr+0x400:
		id := int(offset - GICDItargetsr)
		var w uint32
		for i := 0; i < 4; i++ {
			if id+i < g.NumIRQs && id+i >= SPIBase {
				w |= uint32(g.spi[id+i-SPIBase].target) << (8 * i)
			}
		}
		return uint64(w), nil
	}
	return 0, nil
}

func (d *DistDevice) enableBits(word int) uint32 {
	g := d.G
	var bits uint32
	for b := 0; b < 32; b++ {
		id := word*32 + b
		if id >= g.NumIRQs {
			break
		}
		s, err := g.irq(d.cpu(), id)
		if err == nil && s.enabled {
			bits |= 1 << b
		}
	}
	return bits
}

// WriteReg implements bus.Device.
func (d *DistDevice) WriteReg(offset uint64, size int, v uint64) error {
	g := d.G
	g.Stats.MMIOAccesses++
	switch {
	case offset == GICDCtlr:
		g.ctlEnabled = v&1 != 0
		g.update()
	case offset >= GICDIsenabler && offset < GICDIsenabler+0x80:
		d.writeEnable(int(offset-GICDIsenabler)/4, uint32(v), true)
	case offset >= GICDIcenabler && offset < GICDIcenabler+0x80:
		d.writeEnable(int(offset-GICDIcenabler)/4, uint32(v), false)
	case offset >= GICDItargetsr && offset < GICDItargetsr+0x400:
		id := int(offset - GICDItargetsr)
		for i := 0; i < 4; i++ {
			if id+i < g.NumIRQs && id+i >= SPIBase {
				g.spi[id+i-SPIBase].target = uint8(v >> (8 * i))
			}
		}
		g.update()
	case offset == GICDSgir:
		mask := uint8(v >> SGIRTargetShift)
		id := int(v & SGIRIDMask)
		return g.SendSGI(d.cpu(), mask, id)
	default:
		return fmt.Errorf("gic: unhandled distributor write at %#x", offset)
	}
	return nil
}

func (d *DistDevice) writeEnable(word int, bits uint32, enable bool) {
	g := d.G
	for b := 0; b < 32; b++ {
		if bits&(1<<b) == 0 {
			continue
		}
		id := word*32 + b
		if id >= g.NumIRQs {
			break
		}
		if s, err := g.irq(d.cpu(), id); err == nil {
			s.enabled = enable
			g.ready.Sync(d.cpu(), id)
		}
	}
	g.update()
}
