package hv

import (
	"math/rand"
	"testing"

	"kvmarm/internal/gic"
	"kvmarm/internal/machine"
	"kvmarm/internal/trace"
)

// The virtual distributor's queries as they were before its ready sets:
// scans of every private and shared slot. They are the oracle.

func (s *virqState) scanDeliverable() bool {
	return s.enabled && s.pending && !s.active && (!s.inflight || s.raised > s.staged)
}

func (d *VDist) scanTargets(s *virqState, v VDistVCPU) bool {
	return s.target == 0 && v.VCPUID() == 0 || s.target&(1<<v.VCPUID()) != 0
}

func (d *VDist) scanHasPendingFor(v VDistVCPU) bool {
	if !d.enabled {
		return false
	}
	for id := 0; id < gic.SPIBase; id++ {
		if d.priv[v.VCPUID()][id].scanDeliverable() {
			return true
		}
	}
	for i := range d.spi {
		s := &d.spi[i]
		if s.scanDeliverable() && d.scanTargets(s, v) {
			return true
		}
	}
	return false
}

// scanFlushOrder lists, in staging order, the IDs FlushTo may stage.
func (d *VDist) scanFlushOrder(v VDistVCPU) []int {
	var ids []int
	for id := 0; id < gic.SPIBase; id++ {
		s := &d.priv[v.VCPUID()][id]
		if s.enabled && s.pending && !s.active && !s.inflight {
			ids = append(ids, id)
		}
	}
	for i := range d.spi {
		s := &d.spi[i]
		if s.enabled && s.pending && !s.active && !s.inflight && d.scanTargets(s, v) {
			ids = append(ids, gic.SPIBase+i)
		}
	}
	return ids
}

// scanSyncFrom applies SyncFrom's retirement to copies of the slots.
func scanSyncFrom(saved *gic.VGICCpu, priv *[gic.SPIBase]virqState, spi []virqState) {
	seen := map[int]gic.ListRegState{}
	for i := range saved.LR {
		lr := &saved.LR[i]
		if lr.VirtID != 0 || lr.State != gic.LRInvalid {
			seen[lr.VirtID] = lr.State
		}
	}
	retire := func(id int, s *virqState) {
		if !s.inflight {
			return
		}
		st, live := seen[id]
		if !live || st == gic.LRInvalid {
			s.inflight = false
			s.active = false
			s.pending = s.level || s.raised > s.staged
		}
	}
	for id := 0; id < gic.SPIBase; id++ {
		retire(id, &priv[id])
	}
	for i := range spi {
		retire(gic.SPIBase+i, &spi[i])
	}
}

func (d *VDist) scanAck(v VDistVCPU) int {
	best := -1
	consider := func(id int, s *virqState) {
		if s.enabled && s.pending && !s.active && (best < 0 || id < best) {
			best = id
		}
	}
	for id := 0; id < gic.SPIBase; id++ {
		consider(id, &d.priv[v.VCPUID()][id])
	}
	for i := range d.spi {
		if d.scanTargets(&d.spi[i], v) {
			consider(gic.SPIBase+i, &d.spi[i])
		}
	}
	return best
}

// readyVCPU is a vCPU whose placement the operation stream sets.
type readyVCPU struct {
	id, phys int
	blocked  bool
}

func (v *readyVCPU) VCPUID() int  { return v.id }
func (v *readyVCPU) PhysCPU() int { return v.phys }
func (v *readyVCPU) Blocked() bool {
	return v.blocked
}
func (v *readyVCPU) Wake(int) { v.blocked = false }

type vdistCoverage struct {
	staged, retired, kept, acks, edgeInFlight, restores int
}

// runVDistReadyOracle applies a stream of 4-byte operations to a 3-vCPU
// virtual distributor on a 2-CPU board with a VGIC, holding every query
// to the slot scans after every operation.
func runVDistReadyOracle(t *testing.T, ops []byte) vdistCoverage {
	const nv = 3
	b, err := machine.New(machine.Config{CPUs: 2, RAMBytes: 1 << 20, HasVGIC: true, HasVirtTimer: true, HasDirectVIPI: true})
	if err != nil {
		t.Fatal(err)
	}
	d := NewVDist(b, 1, &VMStats{}, func() *trace.Tracer { return nil })
	vs := make([]*readyVCPU, nv)
	for i := range vs {
		vs[i] = &readyVCPU{id: i, phys: -1}
		d.AddVCPU(vs[i], &gic.VGICCpu{})
	}
	g := b.GIC
	for phys := range b.CPUs {
		g.SetVGICEnabled(phys, true)
	}
	var cov vdistCoverage
	for i := 0; len(ops) >= 4; i, ops = i+1, ops[4:] {
		op, a, bb, c := ops[0]%16, int(ops[1]), int(ops[2]), ops[3]
		v := vs[a%nv]
		phys := a % 2
		id := bb % (gic.SPIBase + vdistSPIs)
		spi := gic.SPIBase + bb%vdistSPIs
		bits := uint32(1) << (bb % 8)
		word := uint64(4 * (bb % 4))
		switch op {
		case 0:
			d.WriteReg(v, gic.GICDIsenabler+word, bits*0x01010101)
		case 1:
			d.WriteReg(v, gic.GICDIcenabler+word, bits)
		case 2:
			d.WriteReg(v, gic.GICDItargetsr+uint64(spi&^3), uint32(c&7)*0x01010101)
		case 3:
			d.WriteReg(v, gic.GICDCtlr, uint32(c&1|c>>7))
		case 4, 15:
			sgi := bb % gic.NumSGIs
			for j, w := range vs {
				if c&(1<<j) != 0 && d.priv[w.id][sgi].inflight {
					cov.edgeInFlight++
				}
			}
			if op == 4 {
				d.WriteReg(v, gic.GICDSgir, uint32(c&7)<<gic.SGIRTargetShift|uint32(sgi))
			} else {
				d.SendSGIFrom(v, c&7, sgi)
			}
		case 5:
			d.InjectSPI(spi, c&1 != 0)
		case 6:
			ppi := gic.NumSGIs + bb%gic.NumPPIs
			if d.priv[v.id][ppi].inflight {
				cov.edgeInFlight++
			}
			d.InjectPPI(v, ppi)
		case 7:
			v.phys, v.blocked = int(c%3)-1, c&4 != 0
		case 8:
			order := d.scanFlushOrder(v)
			before := g.VGICCpuIface(phys).LR
			d.FlushTo(v, phys)
			after := g.VGICCpuIface(phys).LR
			j := 0
			for k := range before {
				if before[k].State != gic.LRInvalid || j == len(order) {
					if after[k] != before[k] {
						t.Fatalf("op %d FlushTo: LR %d changed from %+v to %+v", i, k, before[k], after[k])
					}
					continue
				}
				if after[k].VirtID != order[j] || after[k].State != gic.LRPending {
					t.Fatalf("op %d FlushTo: LR %d = %+v, scan stages %d (order %v)", i, k, after[k], order[j], order)
				}
				j++
				cov.staged++
			}
		case 9:
			// The guest takes a virtual interrupt, and may complete it.
			if got := g.VAck(phys); got != 1023 && c&1 != 0 {
				g.VEOI(phys, got)
			}
		case 10:
			// A world switch on phys: the running context parks in
			// v's saved registers, another vCPU's loads.
			st, _ := g.SaveVGIC(phys)
			*d.saved[v.id] = st
			g.RestoreVGIC(phys, *d.saved[int(c)%nv])
		case 11:
			saved := g.VGICCpuIface(phys)
			if c&1 != 0 {
				saved = d.saved[v.id]
			}
			priv, spis := d.priv[v.id], append([]virqState(nil), d.spi...)
			scanSyncFrom(saved, &priv, spis)
			for k := range spis {
				if d.spi[k].inflight && !spis[k].inflight {
					cov.retired++
				} else if d.spi[k].inflight {
					cov.kept++
				}
			}
			d.SyncFrom(v, saved)
			if d.priv[v.id] != priv {
				t.Fatalf("op %d SyncFrom: private slots diverge from the scan", i)
			}
			for k := range spis {
				if d.spi[k] != spis[k] {
					t.Fatalf("op %d SyncFrom: SPI %d = %+v, scan says %+v", i, gic.SPIBase+k, d.spi[k], spis[k])
				}
			}
		case 12:
			want := d.scanAck(v)
			got, _ := d.AckEmu(v)
			if got != want && !(want < 0 && got == 1023) {
				t.Fatalf("op %d AckEmu = %d, scan says %d", i, got, want)
			}
			if want >= 0 {
				cov.acks++
				if c&1 != 0 {
					d.EOIEmu(v, got)
				}
			}
		case 13:
			// Software EOI of an active interrupt, searched from id.
			for k := 0; k < gic.SPIBase+vdistSPIs; k++ {
				if j := (id + k) % (gic.SPIBase + vdistSPIs); d.irq(v.id, j).active {
					d.EOIEmu(v, j)
					break
				}
			}
		case 14:
			// A migration round trip: LRs drain into the model,
			// the state is installed whole, active ones re-stage.
			if err := d.RestoreIC(d.SaveIC()); err != nil {
				t.Fatal(err)
			}
			cov.restores++
		}
		for _, w := range vs {
			if got, want := d.HasPendingFor(w), d.scanHasPendingFor(w); got != want {
				t.Fatalf("op %d (%d): HasPendingFor(vCPU %d) = %v, scan says %v", i, op, w.id, got, want)
			}
		}
	}
	return cov
}

// FuzzReadySet runs the virtual distributor's ready sets against the slot
// scans on arbitrary streams of injection, routing, SGIs (trapped and
// direct), list-register flush, guest ACK/EOI, sync, software ACK/EOI and
// migration round trips.
func FuzzReadySet(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		ops := make([]byte, 4*2000)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		runVDistReadyOracle(t, ops[:min(len(ops), 4*2000)])
	})
}

// TestVDistReadyOracleCoverage pins that the oracle streams stage, retire
// and keep list registers, acknowledge in software, raise an edge while
// its predecessor is in flight, and round-trip through migration.
func TestVDistReadyOracleCoverage(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		ops := make([]byte, 4*20000)
		rand.New(rand.NewSource(seed)).Read(ops)
		cov := runVDistReadyOracle(t, ops)
		t.Logf("seed %d: %+v", seed, cov)
		if cov.staged == 0 || cov.retired == 0 || cov.kept == 0 || cov.acks == 0 || cov.edgeInFlight == 0 || cov.restores == 0 {
			t.Errorf("seed %d: stream too weak: %+v", seed, cov)
		}
	}
}
