package kvmarm_test

import (
	"testing"

	"kvmarm"
	"kvmarm/internal/arm"
	"kvmarm/internal/kernel"
	"kvmarm/internal/workloads"
	"kvmarm/internal/x86"
)

func TestNativeSystemRunsWorkloads(t *testing.T) {
	sys, err := kvmarm.NewARMNative(2)
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
	sys, err := kvmarm.NewARMVirt(2, kvmarm.VirtOptions{VGIC: true, VTimers: true})
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

func TestEveryConfigurationBoots(t *testing.T) {
	cases := []struct {
		name string
		mk   func() error
	}{
		{"arm-novgic", func() error {
			_, err := kvmarm.NewARMVirt(1, kvmarm.VirtOptions{})
			return err
		}},
		{"arm-lazy", func() error {
			_, err := kvmarm.NewARMVirt(1, kvmarm.VirtOptions{VGIC: true, VTimers: true, LazyVGIC: true})
			return err
		}},
		{"arm-sec6", func() error {
			_, err := kvmarm.NewARMVirt(2, kvmarm.VirtOptions{VGIC: true, VTimers: true, SummaryReg: true, DirectVIPI: true})
			return err
		}},
		{"x86-server", func() error {
			_, err := kvmarm.NewX86Virt(2, x86.Server(), nil)
			return err
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.mk(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestGuestIsolation(t *testing.T) {
	// Two VMs on one host must not see each other's memory: distinct
	// VMIDs, distinct Stage-2 trees, distinct consoles.
	sys, err := kvmarm.NewARMVirt(1, kvmarm.VirtOptions{VGIC: true, VTimers: true, MemBytes: 64 << 20})
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
	sys, err := kvmarm.NewARMVirt(1, kvmarm.VirtOptions{VGIC: true, VTimers: true})
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
