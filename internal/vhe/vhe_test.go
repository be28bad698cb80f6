// VHE-specific behaviour tests. The cross-backend conformance matrix in
// internal/hv already proves the backend boots, emulates MMIO, and
// save/restores registers like the others; these tests pin down what is
// *different* about VHE: the host's hypervisor path needs no HVC, and
// the lazy VGIC switch actually skips state movement.
package vhe_test

import (
	"testing"

	"kvmarm"
	"kvmarm/internal/workloads"
)

func bootVHE(t *testing.T, cpus int, opt kvmarm.VirtOptions) *kvmarm.GuestSystem {
	t.Helper()
	sys, err := kvmarm.NewVirtWith("ARM VHE", cpus, opt)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestHostPathIsHVCFree is the E2H headline: with the kernel running at
// the hypervisor privilege level, kvm_call_hyp degenerates to a function
// call, so an entire guest lifetime completes without a single host HVC —
// on split-mode ARM every world switch takes one.
func TestHostPathIsHVCFree(t *testing.T) {
	sys := bootVHE(t, 2, kvmarm.VirtOptions{LazyVGIC: true})
	if _, err := workloads.Run(sys.System, workloads.LatSyscall()); err != nil {
		t.Fatal(err)
	}
	ctr := sys.HV.Counters()
	if ctr["world_switch_in"] == 0 {
		t.Fatal("no world switches recorded")
	}
	if ctr["guest_traps"] == 0 {
		t.Fatal("no guest traps recorded")
	}
	if ctr["host_calls"] != 0 {
		t.Errorf("host made %d HVC calls; the VHE host path must be HVC-free", ctr["host_calls"])
	}
}

// TestLazyVGICSkipsIdleSwitches checks §3.5's optimisation under E2H:
// with the lazy switch on, idle-VGIC world switches skip the save and
// restore entirely; with it off, nothing is ever skipped.
func TestLazyVGICSkipsIdleSwitches(t *testing.T) {
	run := func(lazy bool) map[string]uint64 {
		sys := bootVHE(t, 1, kvmarm.VirtOptions{LazyVGIC: lazy})
		if _, err := workloads.Run(sys.System, workloads.LatSyscall()); err != nil {
			t.Fatal(err)
		}
		return sys.HV.Counters()
	}
	eager := run(false)
	if eager["vgic_save_skipped"] != 0 || eager["vgic_restore_skipped"] != 0 {
		t.Errorf("eager mode skipped VGIC switches: save=%d restore=%d",
			eager["vgic_save_skipped"], eager["vgic_restore_skipped"])
	}
	lazy := run(true)
	if lazy["vgic_save_skipped"] == 0 {
		t.Error("lazy mode never skipped a VGIC save")
	}
	if lazy["vgic_restore_skipped"] == 0 {
		t.Error("lazy mode never skipped a VGIC restore")
	}
}

// TestDeterministicRun pins the simulation's determinism for the golden
// tests: two identical VHE runs must agree counter for counter.
func TestDeterministicRun(t *testing.T) {
	run := func() map[string]uint64 {
		sys := bootVHE(t, 2, kvmarm.VirtOptions{LazyVGIC: true})
		if _, err := workloads.Run(sys.System, workloads.LatPipe()); err != nil {
			t.Fatal(err)
		}
		return sys.HV.Counters()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("counter sets differ: %v vs %v", a, b)
	}
	for k, v := range a {
		if b[k] != v {
			t.Errorf("counter %s: %d vs %d across identical runs", k, v, b[k])
		}
	}
}
