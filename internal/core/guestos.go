package core

import (
	"kvmarm/internal/hv"
	"kvmarm/internal/kernel"
	"kvmarm/internal/machine"
)

// GuestOS couples an *unmodified* minOS instance to a VM: the same kernel
// package the host runs, configured only through what the "hardware" (as
// emulated by KVM/ARM) tells it — it boots in SVC mode, so it selects the
// virtual timer and never touches Hyp state; its GIC driver lands on the
// VGIC virtual CPU interface; its distributor writes trap to the virtual
// distributor; its page tables live in guest-physical space behind
// Stage-2. Boot scaffolding (shims, Spawn, Booted) is the shared
// hv.GuestBoot.
type GuestOS struct {
	hv.GuestBoot
	VM *VM
}

// NewGuestOS implements hv.VM.
func (vm *VM) NewGuestOS(memBytes uint64) (hv.GuestOS, error) {
	return NewGuestOS(vm, memBytes)
}

// NewGuestOS creates the guest kernel for vm (whose vCPUs must already be
// created) and installs boot shims on each vCPU. Start the vCPU threads
// to boot it.
func NewGuestOS(vm *VM, memBytes uint64) (*GuestOS, error) {
	cfg, err := vm.GuestKernelConfig(memBytes)
	if err != nil {
		return nil, err
	}
	if vm.kvm.Board.Cfg.HasDirectVIPI {
		// The §6 direct-VIPI register: guests discover it like any
		// other device.
		cfg.HW.VSGIBase = machine.GICVSGIBase
	}
	g := &GuestOS{VM: vm}
	g.Attach(kernel.New(cfg), vm.kvm.Board, vm.VCPUs())
	return g, nil
}
