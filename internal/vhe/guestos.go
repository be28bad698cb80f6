package vhe

import (
	"kvmarm/internal/hv"
	"kvmarm/internal/kernel"
	"kvmarm/internal/machine"
)

// GuestOS couples an unmodified minOS instance to a VM, exactly as the
// split-mode backend does: the guest boots in SVC mode, selects the
// virtual timer, and lands its GIC driver on the VGIC virtual CPU
// interface. The guest cannot tell whether its hypervisor is split-mode
// or VHE — only the exit costs differ.
type GuestOS struct {
	hv.GuestBoot
	VM *VM
}

// NewGuestOS implements hv.VM.
func (vm *VM) NewGuestOS(memBytes uint64) (hv.GuestOS, error) {
	return NewGuestOS(vm, memBytes)
}

// NewGuestOS creates the guest kernel for vm (whose vCPUs must already be
// created) and installs boot shims on each vCPU.
func NewGuestOS(vm *VM, memBytes uint64) (*GuestOS, error) {
	cfg, err := vm.GuestKernelConfig(memBytes)
	if err != nil {
		return nil, err
	}
	if vm.kvm.Board.Cfg.HasDirectVIPI {
		// The §6 direct-VIPI register, when the hardware has it.
		cfg.HW.VSGIBase = machine.GICVSGIBase
	}
	g := &GuestOS{VM: vm}
	g.Attach(kernel.New(cfg), vm.kvm.Board, vm.VCPUs())
	return g, nil
}
