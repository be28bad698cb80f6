// MMIO device: implement a custom emulated device for a VM and drive it
// from raw guest code, demonstrating the paper's two MMIO emulation paths:
// syndrome-described accesses (the hardware fills HSR with the register,
// size and direction) and the software instruction-decode fallback for the
// instruction class that leaves the syndrome empty (§4's decoder story).
//
//	go run ./examples/mmio-device
package main

import (
	"fmt"
	"log"

	"kvmarm"
	"kvmarm/internal/arm"
	"kvmarm/internal/hv"
	"kvmarm/internal/isa"
	"kvmarm/internal/kernel"
	"kvmarm/internal/machine"
)

// counterDev is a tiny emulated device: reg 0 reads a counter, writes add
// to it. It implements hv.MMIOHandler, so the same device works on any
// registered backend.
type counterDev struct{ value uint64 }

func (d *counterDev) Name() string { return "counter" }
func (d *counterDev) Read(v hv.VCPU, off uint64, size int) uint64 {
	return d.value
}
func (d *counterDev) Write(v hv.VCPU, off uint64, size int, val uint64) {
	d.value += val
}

const devBase = 0x1D00_0000

func main() {
	sys, err := kvmarm.NewVirt("ARM", 1, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Attach the device as in-kernel emulation (vhost-style; use
	// AddUserMMIO for the QEMU path instead).
	dev := &counterDev{}
	sys.VM.AddKernelMMIO(devBase, 0x1000, dev)

	// A raw SARM32 program drives the device:
	//   STR (immediate offset): abort with a valid syndrome.
	//   LDRR (register offset):  abort WITHOUT a syndrome — the
	//     hypervisor loads the instruction from guest memory and
	//     decodes it in software.
	prog := isa.NewAsm(0x8540_0000).
		MOV32(isa.R1, devBase).
		MOVW(isa.R2, 21).
		STR(isa.R2, isa.R1, 0). // counter += 21 (syndrome path)
		STR(isa.R2, isa.R1, 0). // counter += 21 again
		MOVW(isa.R3, 0).
		LDRR(isa.R0, isa.R1, isa.R3). // r0 = counter (software decode path)
		HVC(kernel.PSCISystemOff).
		MustAssemble()

	raw := make([]byte, 0, len(prog)*4)
	for _, w := range prog {
		raw = append(raw, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	if err := sys.VM.WriteGuestMem(0x8540_0000, raw); err != nil {
		log.Fatal(err)
	}

	v := sys.VM.VCPUs()[0]
	// Pause the vCPU first (wait for it to idle in WFI): a running
	// vCPU's registers live in the hardware, not in the saved context.
	if !sys.Board.Run(20_000_000, func() bool { return v.State() == "wfi" }) {
		log.Fatal("vCPU did not pause")
	}
	// Redirect the booted guest to the bare program (this example wants
	// raw instructions, not the guest kernel). A non-running vCPU's
	// registers are set through the ONE_REG interface.
	if err := v.SetOneReg(hv.RegPC, 0x8540_0000); err != nil {
		log.Fatal(err)
	}
	if err := v.SetOneReg(hv.RegCPSR, uint32(arm.ModeSVC)|arm.PSRI|arm.PSRF); err != nil {
		log.Fatal(err)
	}
	v.SetGuestSoftware(nil, &isa.Interp{})
	v.Wake(0)

	if !sys.Board.Run(50_000_000, func() bool { return sys.Host.LiveCount() == 0 }) {
		log.Fatalf("guest did not finish (state=%s)", v.State())
	}

	r0, err := v.GetOneReg(hv.RegGP(0))
	if err != nil {
		log.Fatal(err)
	}
	st := sys.VM.StatsSnapshot()
	fmt.Printf("device value: %d (expect 42)\n", dev.value)
	fmt.Printf("guest r0 (read back): %d\n", r0)
	fmt.Printf("mmio exits: %d, of which software-decoded: %d\n",
		st.MMIOExits, st.MMIODecoded)
	_ = machine.RAMBase
}
