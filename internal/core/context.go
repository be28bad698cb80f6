// Package core implements the KVM/ARM hypervisor family: the split-mode
// hypervisor of the paper and, through the same code, its ARMv8.1 VHE
// successor (internal/vhe).
//
// Split mode divides the hypervisor in two (§3.1, Figure 2):
//
//   - the lowvisor (lowvisor.go) runs in Hyp mode, kept to an absolute
//     minimum: it configures execution contexts, performs the world switch,
//     and is the virtualization trap handler;
//   - the highvisor (highvisor.go, vtimer.go) runs in kernel mode as part
//     of the host kernel, where it reuses minOS services — the scheduler,
//     memory allocation (GetUserPages), software timers and wait queues —
//     to do the bulk of the work: Stage-2 fault handling, MMIO emulation
//     and routing, the virtual distributor, virtual timer multiplexing.
//
// Because the hypervisor spans kernel mode and Hyp mode, every transition
// between a VM and the highvisor is a *double trap*: VM → Hyp (hardware
// trap into the lowvisor) → host kernel mode (world switch out), and back.
//
// The two family members differ in one thing only, the WorldSwitch: how
// the host kernel reaches a guest and how a guest trap gets back to it
// (Init uses the lowvisor's; vhe.Init passes its own to New). The Hyp trap
// entry with its lazy VFP switch, the guest-side world-switch steps, exit
// handling, MMIO emulation and vtimer multiplexing are this package's, once.
package core

import (
	"kvmarm/internal/arm"
	"kvmarm/internal/gic"
	"kvmarm/internal/hv"
)

// GuestContext is the per-vCPU state moved by the world switch — exactly
// the "Context Switch" half of Table 1, plus the software execution context
// (which PL1 software the VM runs).
type GuestContext struct {
	// GuestRegs is the part every backend saves in the same shape: the
	// 38-register general-purpose set, the 26 context-switched control
	// registers, the virtual timer (2 control registers + CNTVOFF) and
	// the software context (PL1 handler and runner).
	hv.GuestRegs
	// Shadow ID registers presented to the VM (world-switch step 7).
	VPIDR  uint32
	VMPIDR uint32
	// VGIC is the saved VGIC CPU-interface state (16 control + 4 list
	// registers).
	VGIC gic.VGICCpu
	// VFP is the guest floating-point state (32 × 64-bit + 4 control),
	// switched lazily: Dirty marks that the guest touched FP since entry.
	VFP   arm.VFP
	Dirty bool
}

// Reg reads GP register n from a saved context, honouring the banked view
// of the saved CPSR's mode (the highvisor reads the faulting instruction's
// source register this way during MMIO emulation).
func (g *GuestContext) Reg(n int) uint32 { return hv.BankedReg(&g.GP, n) }

// SetReg writes GP register n in a saved context (MMIO load emulation).
func (g *GuestContext) SetReg(n int, v uint32) { hv.SetBankedReg(&g.GP, n, v) }

// HostContext is the host state a world switch parks per physical CPU
// while a guest runs (world-switch steps 1 and 4 in split mode, where it
// sits on the Hyp stack). The host's floating-point state is parked
// separately, by the lazy VFP switch.
type HostContext struct {
	GP          arm.GPSnapshot
	CP15        [arm.NumCtxControlRegs]uint32
	CPSR        uint32
	PL1Software arm.ExcHandler
	Runner      arm.Runner
}
