package kvmarm_test

import (
	"errors"
	"testing"

	"kvmarm"
	"kvmarm/internal/arm"
	"kvmarm/internal/hv"
	"kvmarm/internal/kernel"
	"kvmarm/internal/workloads"
)

func TestNativeSystemRunsWorkloads(t *testing.T) {
	sys, err := kvmarm.NewNative("ARM", 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := workloads.Run(sys.System, workloads.LatSyscall())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("empty measurement")
	}
	if sys.Host.BootedInHyp != true {
		t.Fatal("native host must boot in Hyp mode (the standard bootloader protocol)")
	}
}

func TestVirtSystemProperties(t *testing.T) {
	sys, err := kvmarm.NewVirt("ARM", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sys.System.Virtualized {
		t.Fatal("virt system must mark itself virtualized")
	}
	if sys.Guest.Kernel().BootedInHyp {
		t.Fatal("the guest must never see Hyp mode")
	}
	if !sys.Guest.Kernel().UseVirtTimer {
		t.Fatal("guests select the virtual timer")
	}
	if sys.Host.UseVirtTimer {
		t.Fatal("the host keeps the physical timer")
	}
	if len(sys.VM.VCPUs()) != 2 {
		t.Fatal("vCPU count")
	}
}

// TestEveryConfigurationBoots boots a guest under every row of the
// platform table with the row's defaults, then with each VGIC extension
// (the §3.5 lazy switch; the §6 hardware): a row with a VGIC boots them,
// a row without one rejects them with ErrNoVGIC.
func TestEveryConfigurationBoots(t *testing.T) {
	for _, be := range hv.Backends() {
		for _, tc := range []struct {
			suffix string
			cpus   int
			opt    *kvmarm.VirtOptions // nil: the row's defaults
		}{
			{"", 1, nil},
			{"-lazy", 1, &kvmarm.VirtOptions{LazyVGIC: true}},
			{"-sec6", 2, &kvmarm.VirtOptions{SummaryReg: true, DirectVIPI: true}},
		} {
			be, tc := be, tc
			t.Run(be.Aliases[0]+tc.suffix, func(t *testing.T) {
				if tc.opt == nil {
					if _, err := kvmarm.NewVirt(be.Name, tc.cpus, nil); err != nil {
						t.Fatal(err)
					}
					return
				}
				_, err := kvmarm.NewVirtWith(be.Name, tc.cpus, *tc.opt)
				if be.Board.HasVGIC && err != nil {
					t.Fatalf("VGIC extension must boot: %v", err)
				}
				if !be.Board.HasVGIC && !errors.Is(err, kvmarm.ErrNoVGIC) {
					t.Fatalf("VGIC extension on hardware without a VGIC: err = %v, want ErrNoVGIC", err)
				}
			})
		}
	}
}

func TestGuestIsolation(t *testing.T) {
	// Two VMs on one host must not see each other's memory: distinct
	// VMIDs, distinct Stage-2 trees, distinct consoles.
	sys, err := kvmarm.NewVirtWith("ARM", 1, kvmarm.VirtOptions{MemBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	vm2, err := sys.HV.CreateVM(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if vm2.ID() == sys.VM.ID() {
		t.Fatal("VMIDs must differ")
	}
	if vm2.GuestMemory().Table.Root == sys.VM.GuestMemory().Table.Root {
		t.Fatal("Stage-2 trees must differ")
	}
	// Write into VM1's memory; VM2's view of the same IPA must differ.
	if err := sys.VM.WriteGuestMem(0x8100_0000, []byte{0xAB}); err != nil {
		t.Fatal(err)
	}
	b2, err := vm2.ReadGuestMem(0x8100_0000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b2[0] == 0xAB {
		t.Fatal("VM2 must not see VM1's memory")
	}
}

func TestEndToEndGuestWork(t *testing.T) {
	sys, err := kvmarm.NewVirt("ARM", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	_, err = sys.Guest.Spawn("work", 0, kernel.BodyFunc(func(k *kernel.Kernel, p *kernel.Proc, c *arm.CPU) bool {
		switch steps {
		case 0:
			k.TouchUserPage(c, 0x0040_0000)
		case 1:
			k.SyscallGetPID(0, c)
		case 2:
			k.ConsoleWrite(c, "x")
		default:
			k.PowerOff(c)
			return true
		}
		steps++
		return false
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !sys.Board.Run(100_000_000, func() bool { return sys.Host.LiveCount() == 0 }) {
		t.Fatal("guest work stalled")
	}
	if string(sys.VM.ConsoleBytes()) != "x" {
		t.Fatalf("console %q", string(sys.VM.ConsoleBytes()))
	}
	if st := sys.VM.StatsSnapshot(); st.Stage2Faults == 0 || st.MMIOExits == 0 {
		t.Fatalf("expected hypervisor activity: %+v", st)
	}
}
