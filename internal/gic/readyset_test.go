package gic

import (
	"math/rand"
	"testing"
)

// scanPendingFor is GIC.pendingFor as it was before the ready set: a scan
// of every private and shared slot. It is the oracle the ready set must
// agree with.
func (g *GIC) scanPendingFor(cpu int) int {
	cs := &g.cpus[cpu]
	if !g.ctlEnabled || !cs.ctlEnabled {
		return -1
	}
	for id := 0; id < SPIBase; id++ {
		s := &cs.priv[id]
		if s.enabled && s.pending && !s.active {
			return id
		}
	}
	for i := range g.spi {
		s := &g.spi[i]
		if s.enabled && s.pending && !s.active && s.target&(1<<cpu) != 0 {
			return SPIBase + i
		}
	}
	return -1
}

// readyCoverage counts what an operation stream exercised.
type readyCoverage struct {
	acks, spiAcks, hwEOIs, maint, ctlrOff, nexts int
}

// runGICReadyOracle applies a stream of 4-byte operations to a 3-CPU GIC
// and, after every one, holds pendingFor, the IRQ lines and arbitrary
// Next queries to the slot scan.
func runGICReadyOracle(t *testing.T, ops []byte) readyCoverage {
	const cpus = 3
	g, l := newGIC(t, cpus)
	dist := &DistDevice{G: g}
	var cov readyCoverage
	for i := 0; len(ops) >= 4; i, ops = i+1, ops[4:] {
		op, a, b, c := ops[0]%16, int(ops[1]), int(ops[2]), ops[3]
		cpu := a % cpus
		id := b % g.NumIRQs
		spi := SPIBase + b%(g.NumIRQs-SPIBase)
		want := g.scanPendingFor(cpu)
		switch op {
		case 0:
			_ = g.EnableIRQ(cpu, id)
		case 1:
			_ = g.DisableIRQ(cpu, id)
		case 2:
			_ = g.SetTarget(spi, c)
		case 3:
			_ = g.RaiseSPI(spi, c&1 != 0)
		case 4:
			_ = g.RaisePPI(cpu, NumSGIs+b%NumPPIs, c&1 != 0)
		case 5:
			_ = g.SendSGI(cpu, c, b%NumSGIs)
		case 6:
			got, _ := g.Ack(cpu)
			if want < 0 {
				want = 1023
			} else {
				cov.acks++
				if want >= SPIBase {
					cov.spiAcks++
				}
			}
			if got != want {
				t.Fatalf("op %d Ack(%d) = %d, scan says %d", i, cpu, got, want)
			}
		case 7:
			g.EOI(cpu, id)
		case 8:
			// A hardware-linked list register for a physical
			// interrupt the CPU acknowledged, or a plain one.
			lr := ListReg{VirtID: id, State: ListRegState(c % 4), HW: c&4 != 0, PhysID: id, EOIMaint: c&8 != 0}
			_ = g.WriteLR(cpu, int(c>>4)%NumListRegs, lr)
		case 9:
			g.VAck(cpu)
		case 10:
			v := &g.cpus[cpu].vgic
			for j := range v.LR {
				if v.LR[j].HW && v.LR[j].VirtID == id && v.LR[j].State >= LRActive {
					cov.hwEOIs++
				}
			}
			g.VEOI(cpu, id)
		case 11:
			g.ClearMaintenance(cpu)
		case 12:
			g.SetVGICEnabled(cpu, c&1 != 0)
		case 13:
			st, _ := g.SaveVGIC(cpu)
			g.RestoreVGIC((cpu+1)%cpus, st)
		case 14:
			// Distributor MMIO, banked by the accessing CPU.
			dist.Accessor = func() int { return cpu }
			bits := uint64(1) << (b % 32)
			word := uint64(4 * (b % 4))
			switch c % 6 {
			case 0:
				_ = dist.WriteReg(GICDCtlr, 4, uint64(c>>3)&1)
				if !g.ctlEnabled {
					cov.ctlrOff++
				}
			case 1:
				_ = dist.WriteReg(GICDIsenabler+word, 4, bits)
			case 2:
				_ = dist.WriteReg(GICDIcenabler+word, 4, bits)
			case 3:
				_ = dist.WriteReg(GICDItargetsr+uint64(spi&^3), 4, uint64(c)*0x01010101)
			case 4:
				_ = dist.WriteReg(GICDSgir, 4, uint64(c)<<SGIRTargetShift|uint64(b%NumSGIs))
			case 5:
				_ = dist.WriteReg(GICDCtlr, 4, 1)
			}
		case 15:
			// An arbitrary resumed walk: the lowest set ID >= id.
			cov.nexts++
			got, scan := g.ready.Next(cpu, id), -1
			for j := id; j < g.NumIRQs; j++ {
				if g.readyBit(cpu, j) && (j < SPIBase || g.routes(j, cpu)) {
					scan = j
					break
				}
			}
			if got != scan {
				t.Fatalf("op %d Next(%d, %d) = %d, scan says %d", i, cpu, id, got, scan)
			}
		}
		for q := 0; q < cpus; q++ {
			if g.cpus[q].priv[IRQMaintenance].pending {
				cov.maint++
			}
			want := g.scanPendingFor(q)
			if got := g.pendingFor(q); got != want {
				t.Fatalf("op %d (%d): pendingFor(%d) = %d, scan says %d", i, op, q, got, want)
			}
			if l.irq[q] != (want >= 0) {
				t.Fatalf("op %d (%d): IRQ line %d = %v, scan says pending %d", i, op, q, l.irq[q], want)
			}
		}
	}
	return cov
}

func randomReadyOps(seed int64, n int) []byte {
	ops := make([]byte, 4*n)
	rand.New(rand.NewSource(seed)).Read(ops)
	return ops
}

// FuzzReadySet runs the GIC's ready set against the slot scan on
// arbitrary operation streams: enable/disable, routing, SPI/PPI levels,
// SGIs, Ack/EOI, list registers (HW-linked VEOI, maintenance), VGIC
// save/restore and distributor MMIO including GICD_CTLR.
func FuzzReadySet(f *testing.F) {
	f.Add([]byte{0, 0, 40, 0, 3, 0, 40, 1, 6, 0, 0, 0})
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(randomReadyOps(seed, 2000))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		runGICReadyOracle(t, ops[:min(len(ops), 4*2000)])
	})
}

// TestGICReadyOracleCoverage pins that the oracle streams reach what the
// comparison is for: acknowledged private and shared interrupts,
// HW-linked completions, maintenance, a disabled distributor and resumed
// walks.
func TestGICReadyOracleCoverage(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		cov := runGICReadyOracle(t, randomReadyOps(seed, 20000))
		t.Logf("seed %d: %+v", seed, cov)
		if cov.acks == 0 || cov.spiAcks == 0 || cov.hwEOIs == 0 || cov.maint == 0 || cov.ctlrOff == 0 || cov.nexts == 0 {
			t.Errorf("seed %d: stream too weak: %+v", seed, cov)
		}
	}
}

// TestReadySetWordEdges walks a set whose shared IDs span a full and a
// partial word, from every starting point, against a plain bit model.
func TestReadySetWordEdges(t *testing.T) {
	const cpus, spis = 2, 100
	bits := make(map[[2]int]bool)
	r := NewReadySet(cpus, spis, bits, func(bits map[[2]int]bool, cpu, id int) bool {
		if id >= SPIBase {
			cpu = 0
		}
		return bits[[2]int{cpu, id}]
	}, func(_ map[[2]int]bool, id, cpu int) bool { return id%(cpu+2) != 0 })
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 2000; round++ {
		cpu, id := rng.Intn(cpus), rng.Intn(SPIBase+spis)
		if id >= SPIBase {
			cpu = 0
		}
		bits[[2]int{cpu, id}] = !bits[[2]int{cpu, id}]
		r.Sync(cpu, id)
		if round%97 == 0 {
			r.Rebuild()
		}
		for q := 0; q < cpus; q++ {
			for from := 0; from <= SPIBase+spis; from++ {
				want := -1
				for j := from; j < SPIBase+spis; j++ {
					if r.Bit(q, j) && r.Routes(j, q) {
						want = j
						break
					}
				}
				if got := r.Next(q, from); got != want {
					t.Fatalf("round %d: Next(%d, %d) = %d, want %d", round, q, from, got, want)
				}
			}
		}
	}
}
