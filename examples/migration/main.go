// Migration: save a paused vCPU's complete register state through the
// ONE_REG user-space interface (the save/restore API of §4, designed with
// Rusty Russell for debugging and VM migration), restore it into a fresh
// VM on a fresh board, and let the guest continue exactly where it
// stopped.
//
//	go run ./examples/migration
package main

import (
	"fmt"
	"log"

	"kvmarm"
	"kvmarm/internal/arm"
	"kvmarm/internal/hv"
	"kvmarm/internal/isa"
	"kvmarm/internal/kernel"
)

const progBase = 0x8540_0000

// guestProgram counts in r5 and hypercalls every step; after 6 steps it
// powers off. We migrate it mid-count.
func guestProgram() []uint32 {
	return isa.NewAsm(progBase).
		MOVW(isa.R5, 0).
		Label("loop").
		ADDI(isa.R5, isa.R5, 1).
		HVC(1). // observable progress marker
		CMPI(isa.R5, 6).
		BNE("loop").
		HVC(kernel.PSCISystemOff).
		MustAssemble()
}

func bootISAGuest(label string) (*kvmarm.GuestSystem, error) {
	sys, err := kvmarm.NewVirt("ARM", 1, nil)
	if err != nil {
		return nil, err
	}
	prog := guestProgram()
	raw := make([]byte, 0, len(prog)*4)
	for _, w := range prog {
		raw = append(raw, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	if err := sys.VM.WriteGuestMem(progBase, raw); err != nil {
		return nil, err
	}
	v := sys.VM.VCPUs()[0]
	v.SetGuestSoftware(nil, &isa.Interp{})
	_ = label
	return sys, nil
}

func main() {
	// Source machine.
	src, err := bootISAGuest("source")
	if err != nil {
		log.Fatal(err)
	}
	v := src.VM.VCPUs()[0]
	if !src.Board.Run(20_000_000, func() bool { return v.State() == "wfi" }) {
		log.Fatal("source vCPU did not pause")
	}
	if err := v.SetOneReg(hv.RegPC, progBase); err != nil {
		log.Fatal(err)
	}
	if err := v.SetOneReg(hv.RegCPSR, uint32(arm.ModeSVC)|arm.PSRI|arm.PSRF); err != nil {
		log.Fatal(err)
	}
	v.Wake(0)

	// Run until the guest has made 3 hypercalls, then stop stepping:
	// the vCPU is paused with its state saved in the hypervisor.
	if !src.Board.Run(50_000_000, func() bool { return src.VM.StatsSnapshot().Hypercalls >= 3 }) {
		log.Fatal("source guest made no progress")
	}
	v.Pause()
	if !src.Board.Run(20_000_000, v.Paused) {
		log.Fatal("source vCPU did not pause")
	}
	regs, err := hv.SaveAllRegs(v)
	if err != nil {
		log.Fatal(err)
	}
	r5, _ := v.GetOneReg(hv.RegGP(5))
	pc, _ := v.GetOneReg(hv.RegPC)
	fmt.Printf("source paused: %d registers saved, r5=%d, pc=%#x\n",
		len(regs), r5, pc)

	// Copy guest memory (the migration stream).
	mem, err := src.VM.ReadGuestMem(progBase, len(guestProgram())*4)
	if err != nil {
		log.Fatal(err)
	}

	// Destination machine: fresh board, fresh VM.
	dst, err := bootISAGuest("destination")
	if err != nil {
		log.Fatal(err)
	}
	if err := dst.VM.WriteGuestMem(progBase, mem); err != nil {
		log.Fatal(err)
	}
	dv := dst.VM.VCPUs()[0]
	if !dst.Board.Run(20_000_000, func() bool { return dv.State() == "wfi" }) {
		log.Fatal("destination vCPU did not pause")
	}
	if err := hv.RestoreAllRegs(dv, regs); err != nil {
		log.Fatal(err)
	}
	dv.Wake(0)

	if !dst.Board.Run(50_000_000, func() bool { return dst.Host.LiveCount() == 0 }) {
		log.Fatal("destination guest did not finish")
	}
	dr5, err := dv.GetOneReg(hv.RegGP(5))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("destination finished: r5=%d (expect 6), hypercalls here=%d\n",
		dr5, dst.VM.StatsSnapshot().Hypercalls)
}
