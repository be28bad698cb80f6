package bench

import (
	"testing"

	"kvmarm"
	"kvmarm/internal/workloads"
)

// TestHistoryIndependence: a simulated result is a function of its
// configuration only, not of what the process simulated before. One
// Table 3 cell (ARM hypercall) and one §5 cell (UP kernel compile, native
// and virtualized on ARM) are computed, then 300 address spaces are
// created on an unrelated kernel, and the cells must come out bit-equal in
// raw cycles. The native cell is re-measured after every one of the 300:
// a process-wide ASID counter moved it at only one offset in 256.
func TestHistoryIndependence(t *testing.T) {
	w := workloads.KernelCompile()
	native := func() uint64 {
		t.Helper()
		nat, err := kvmarm.NewNative("ARM", 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := workloads.Run(nat.System, w)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	cells := func() [2]uint64 {
		t.Helper()
		hc, _, _, _, err := measureMicro("ARM")
		if err != nil {
			t.Fatal(err)
		}
		virt, err := kvmarm.NewVirt("ARM", 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := workloads.Run(virt.System, w)
		if err != nil {
			t.Fatal(err)
		}
		return [2]uint64{hc, res.Cycles}
	}
	first, firstNative := cells(), native()
	other, err := kvmarm.NewNative("ARM", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 300; i++ {
		if _, err := other.System.K.NewAddrSpace(); err != nil {
			t.Fatal(err)
		}
		if got := native(); got != firstNative {
			t.Fatalf("native kernel compile = %d cycles after %d unrelated address spaces, %d before", got, i, firstNative)
		}
	}
	if second := cells(); second != first {
		t.Fatalf("cycles [hypercall, virt compile] = %v after 300 unrelated address spaces, %v before", second, first)
	}
}
