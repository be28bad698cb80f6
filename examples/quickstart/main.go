// Quickstart: boot an unmodified minOS guest inside a VM under KVM/ARM,
// run a process in it, and watch the split-mode hypervisor at work.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"kvmarm"
	"kvmarm/internal/arm"
	"kvmarm/internal/kernel"
)

func main() {
	// One call boots the whole stack: the simulated Arndale-like board,
	// the host minOS (entered in Hyp mode per the boot protocol the
	// paper standardized), KVM/ARM (lowvisor vectors installed through
	// the Hyp stub), a VM with Stage-2 tables and a virtual
	// distributor, and the guest minOS — the same kernel package as the
	// host, booted in SVC so it picks the virtual timer.
	sys, err := kvmarm.NewVirt("ARM", 2, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("guest kernel is up; vCPUs:", len(sys.VM.VCPUs()))

	// Run a process inside the guest. Its system calls go straight to
	// the guest kernel (no hypervisor trap); its fresh memory touches
	// take Stage-2 faults that the highvisor resolves with the host
	// kernel's allocator; its console writes trap to QEMU-style user
	// space emulation.
	finished := false
	_, err = sys.Guest.Spawn("demo", 0, kernel.BodyFunc(func(k *kernel.Kernel, p *kernel.Proc, c *arm.CPU) bool {
		k.ConsoleWrite(c, "hello from inside the VM!\n")
		k.TouchUserPage(c, 0x0020_0000)
		k.SyscallGetPID(0, c)
		finished = true
		k.PowerOff(c) // PSCI SYSTEM_OFF hypercall
		return true
	}))
	if err != nil {
		log.Fatal(err)
	}

	if !sys.Board.Run(100_000_000, func() bool { return finished && sys.Host.LiveCount() == 0 }) {
		log.Fatal("guest did not finish")
	}

	fmt.Printf("console: %q\n", string(sys.VM.ConsoleBytes()))
	st := sys.VM.StatsSnapshot()
	fmt.Printf("world switches: %d, stage-2 faults: %d, mmio exits: %d\n",
		sys.HV.Counters()["world_switch_in"], st.Stage2Faults, st.MMIOExits)
}
