package kvmx86

import (
	"math/rand"
	"testing"

	"kvmarm/internal/gic"
	"kvmarm/internal/machine"
	"kvmarm/internal/x86"
)

// The APIC's queries as they were before its ready set: scans of every
// private and shared slot. They are the oracle.

func (a *APIC) scanTargets(s *virqState, v *VCPU) bool {
	return s.target == 0 && v.ID == 0 || s.target&(1<<v.ID) != 0
}

func (a *APIC) scanHasPendingFor(v *VCPU) bool {
	for id := 0; id < gic.SPIBase; id++ {
		s := &a.priv[v.ID][id]
		if s.enabled && s.pending && !s.active {
			return true
		}
	}
	for i := range a.spi {
		s := &a.spi[i]
		if s.enabled && s.pending && !s.active && a.scanTargets(s, v) {
			return true
		}
	}
	return false
}

func (a *APIC) scanAck(v *VCPU) int {
	best := -1
	consider := func(id int, s *virqState) {
		if s.enabled && s.pending && !s.active && (best < 0 || id < best) {
			best = id
		}
	}
	for id := 0; id < gic.SPIBase; id++ {
		consider(id, &a.priv[v.ID][id])
	}
	for i := range a.spi {
		if a.scanTargets(&a.spi[i], v) {
			consider(gic.SPIBase+i, &a.spi[i])
		}
	}
	return best
}

// newReadyAPIC is an APIC with three vCPUs on a bare 2-CPU board: enough
// of a VM for its interrupt model, nothing booted.
func newReadyAPIC(t *testing.T) *APIC {
	t.Helper()
	b, err := machine.New(machine.Config{CPUs: 2, RAMBytes: 1 << 20, HasVirtTimer: true})
	if err != nil {
		t.Fatal(err)
	}
	x := &Hypervisor{P: x86.Laptop()}
	x.Board = b
	vm := &VM{kvm: x}
	vm.APIC = newAPIC(vm)
	for i := 0; i < 3; i++ {
		v := &VCPU{vm: vm}
		v.ID = i
		vm.vcpus = append(vm.vcpus, v)
		vm.APIC.addVCPU()
	}
	return vm.APIC
}

type apicCoverage struct{ acks, spiAcks, eois, restores int }

// runAPICReadyOracle applies a stream of 4-byte operations to the APIC
// and holds every query to the slot scans after every operation.
func runAPICReadyOracle(t *testing.T, ops []byte) apicCoverage {
	a := newReadyAPIC(t)
	var cov apicCoverage
	for i := 0; len(ops) >= 4; i, ops = i+1, ops[4:] {
		op, sel, b, c := ops[0]%9, int(ops[1]), int(ops[2]), ops[3]
		v := a.vm.vcpus[sel%len(a.vm.vcpus)]
		id := b % (gic.SPIBase + apicSPIs)
		spi := gic.SPIBase + b%apicSPIs
		word := uint64(4 * (b % 4))
		switch op {
		case 0:
			a.WriteReg(v, gic.GICDIsenabler+word, (uint32(1)<<(b%8))*0x01010101)
		case 1:
			a.WriteReg(v, gic.GICDIcenabler+word, uint32(1)<<(b%32))
		case 2:
			a.WriteReg(v, gic.GICDItargetsr+uint64(spi&^3), uint32(c&7)*0x01010101)
		case 3:
			a.WriteReg(v, gic.GICDSgir, uint32(c&7)<<gic.SGIRTargetShift|uint32(b%gic.NumSGIs))
		case 4:
			a.InjectSPI(spi, c&1 != 0)
		case 5:
			a.InjectTimer(0, v.ID)
		case 6:
			want := a.scanAck(v)
			got, _ := a.Ack(v)
			if got != want && !(want < 0 && got == 1023) {
				t.Fatalf("op %d Ack = %d, scan says %d", i, got, want)
			}
			if want >= 0 {
				cov.acks++
				if want >= gic.SPIBase {
					cov.spiAcks++
				}
				if c&1 != 0 {
					a.EOI(v, got)
				}
			}
		case 7:
			// EOI of an active interrupt, searched from id.
			for k := 0; k < gic.SPIBase+apicSPIs; k++ {
				if j := (id + k) % (gic.SPIBase + apicSPIs); a.irq(v.ID, j).active {
					a.EOI(v, j)
					cov.eois++
					break
				}
			}
		case 8:
			if err := a.RestoreIC(a.SaveIC()); err != nil {
				t.Fatal(err)
			}
			cov.restores++
		}
		for _, w := range a.vm.vcpus {
			if got, want := a.hasPendingFor(w), a.scanHasPendingFor(w); got != want {
				t.Fatalf("op %d (%d): hasPendingFor(vCPU %d) = %v, scan says %v", i, op, w.ID, got, want)
			}
		}
	}
	return cov
}

// FuzzReadySet runs the APIC's ready set against the slot scans on
// arbitrary streams of enable/disable, routing, IPIs, device lines, timer
// injections, IDT-vectored acknowledge, EOI and migration round trips.
func FuzzReadySet(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		ops := make([]byte, 4*2000)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		runAPICReadyOracle(t, ops[:min(len(ops), 4*2000)])
	})
}

// TestAPICReadyOracleCoverage pins that the oracle streams acknowledge
// private and shared interrupts, complete them and round-trip through
// migration.
func TestAPICReadyOracleCoverage(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		ops := make([]byte, 4*20000)
		rand.New(rand.NewSource(seed)).Read(ops)
		cov := runAPICReadyOracle(t, ops)
		t.Logf("seed %d: %+v", seed, cov)
		if cov.acks == 0 || cov.spiAcks == 0 || cov.eois == 0 || cov.restores == 0 {
			t.Errorf("seed %d: stream too weak: %+v", seed, cov)
		}
	}
}
