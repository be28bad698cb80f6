package main

import (
	"encoding/binary"
	"fmt"

	"kvmarm/internal/arm"
	"kvmarm/internal/hv"
	"kvmarm/internal/isa"
	"kvmarm/internal/machine"
)

// powerOff is the PSCI SYSTEM_OFF function id a guest passes to HVC to end
// its vCPU thread (kernel.PSCISystemOff).
const powerOff = 0x808

// Boot CPSRs of a raw guest: supervisor mode with interrupts masked, or
// with IRQs open so the host's slice timer can preempt a polling loop
// (guests sharing a host CPU need that to make progress).
const (
	cpsrMasked  = uint32(arm.ModeSVC) | arm.PSRI | arm.PSRF
	cpsrIRQOpen = uint32(arm.ModeSVC) | arm.PSRF
)

// image is one region of guest memory to load before boot.
type image struct {
	ipa  uint64
	data []byte
}

// rawGuest describes a 1-vCPU machine-code guest.
type rawGuest struct {
	memBytes uint64
	images   []image // images[0] holds the entry point at its ipa
	cpsr     uint32
	hostCPU  int
	// singleStep opts the guest out of block dispatch on the backends
	// that have it.
	singleStep bool
	// devices, when set, adds emulated devices to the VM before it boots.
	devices func(vm hv.VM)
}

// bootRaw creates the VM, loads its images, points the vCPU at the entry
// and starts its host thread. The guest runs when the board is stepped.
func bootRaw(env *hv.Env, g rawGuest) (hv.VM, hv.VCPU, error) {
	vm, err := env.HV.CreateVM(g.memBytes)
	if err != nil {
		return nil, nil, err
	}
	if g.devices != nil {
		g.devices(vm)
	}
	v, err := vm.CreateVCPU(0)
	if err != nil {
		return nil, nil, err
	}
	for _, im := range g.images {
		if err := vm.WriteGuestMem(im.ipa, im.data); err != nil {
			return nil, nil, fmt.Errorf("loading image at %#x: %w", im.ipa, err)
		}
	}
	if err := v.SetOneReg(hv.RegPC, uint32(g.images[0].ipa)); err != nil {
		return nil, nil, err
	}
	if err := v.SetOneReg(hv.RegCPSR, g.cpsr); err != nil {
		return nil, nil, err
	}
	v.SetGuestSoftware(nil, &isa.Interp{SingleStep: g.singleStep})
	if _, err := v.StartThread(g.hostCPU); err != nil {
		return nil, nil, err
	}
	return vm, v, nil
}

// interpFor installs the interpreter on vCPUs the host builds for us
// (fork clones, migration destinations): software contexts do not travel
// with register state.
func interpFor(id int, v hv.VCPU) { v.SetGuestSoftware(nil, &isa.Interp{}) }

func shutdown(v hv.VCPU) bool { return v.State() == "shutdown" }

// readWord reads one little-endian word of guest memory.
func readWord(vm hv.VM, ipa uint64) (uint32, error) {
	b, err := vm.ReadGuestMem(ipa, 4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

// regsOf reads r0..r12 of a stopped vCPU.
func regsOf(v hv.VCPU) ([]byte, error) {
	out := make([]byte, 0, 13*4)
	for i := 0; i < 13; i++ {
		x, err := v.GetOneReg(hv.RegGP(i))
		if err != nil {
			return nil, err
		}
		out = binary.LittleEndian.AppendUint32(out, x)
	}
	return out, nil
}

// Guest-physical layout shared by the raw guests: code at the bottom of
// RAM, a page of variables one MiB up, tables and data above.
const (
	guestCode = machine.RAMBase
	guestVars = machine.RAMBase + 1<<20
)
