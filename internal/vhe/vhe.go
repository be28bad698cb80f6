// Package vhe models KVM on ARMv8.1 with the Virtualization Host
// Extensions (VHE, the E2H bit) — the §6 counterfactual of the paper: "the
// cost of split-mode virtualization is an artifact of the ARMv7 register
// banking; hardware that lets the kernel run in Hyp mode removes it".
//
// With E2H set, EL1 system-register accesses from the host kernel are
// redirected to their EL2 counterparts, so an unmodified kernel executes
// at the hypervisor privilege level. VHE is therefore not a second
// hypervisor but a second world switch for the KVM/ARM family in
// internal/core, whose exit handling, MMIO emulation, virtual distributor,
// vtimer multiplexing and lazy VFP switch it runs unchanged — those costs
// are architectural, not artifacts of the split. What this package
// supplies is where VHE differs, each the disappearance of a split-mode
// cost:
//
//   - kvm_call_hyp becomes a plain function call: entering a guest costs
//     no HVC, and no exit takes a double trap (VM → EL2 → kernel becomes
//     VM → kernel-at-EL2).
//   - No Hyp stub and no dedicated Hyp page table: the kernel owns EL2
//     from boot; its own page tables serve the hypervisor (TTBR1_EL2
//     exists under E2H).
//   - The world switch moves only guest-visible state: the host's EL1
//     context lives in EL2 registers the guest cannot touch, so entry
//     loads the guest's 26 context registers without first spilling the
//     host's (half of the paper's Table 1 "Context Switch" traffic), and
//     the full 38-register trap frame shrinks to the callee-saved set of
//     a function call.
//
// The simulation runs the host kernel in SVC mode as every other backend
// does; SVC here stands in for "EL2 with E2H redirection" — the point of
// VHE is precisely that the kernel is unchanged.
package vhe

import (
	"fmt"

	"kvmarm/internal/arm"
	"kvmarm/internal/core"
	"kvmarm/internal/kernel"
	"kvmarm/internal/machine"
)

// hostCalleeSaved is the GP subset the HVC-free entry path spills: the
// AAPCS callee-saved registers of the Enter call (r4-r11, sp, lr and
// the frame bookkeeping), instead of the full arm.GPCount() trap frame.
const hostCalleeSaved = 12

// Init brings KVM/VHE up on a booted host kernel. The kernel must have
// been entered in Hyp mode — under VHE it *stays* there; there is no stub
// round-trip and no Hyp page table to build, so installing the exit
// handler is a plain register write on each CPU.
func Init(b *machine.Board, host *kernel.Kernel) (*core.KVM, error) {
	if !host.HypStubInstalled {
		return nil, fmt.Errorf("vhe: kernel did not boot in Hyp mode; KVM disabled")
	}
	if !b.Cfg.HasVGIC || !b.Cfg.HasVirtTimer {
		return nil, fmt.Errorf("vhe: ARMv8.1 hardware implies a VGIC and virtual timers")
	}
	return core.New(b, host, &worldSwitch{})
}

// worldSwitch is the VHE world switch. Compare with internal/core's
// lowvisor: the same guest-visible state moves (through the same core
// steps), but the host side collapses — entry is a function call from the
// kernel (no HVC), the host spills only its callee-saved registers (a
// function-call frame, not a 38-register trap frame), and the host's EL1
// context never moves because under E2H it lives in EL2 registers the
// guest cannot reach.
type worldSwitch struct {
	kvm *core.KVM
	// host parks the host's state per physical CPU during guest
	// execution. The GP snapshot and CP15 block are full copies (the
	// simulated CPU has one physical register file), but the switch
	// charges only the callee-saved subset and the one-directional CP15
	// load.
	host []core.HostContext
}

// Install makes the family's trap entry the EL2 exception handler — which
// conceptually IS the host kernel (TGE routing): a guest trap lands
// directly in the exit logic, no lowvisor, no double trap.
func (w *worldSwitch) Install(k *core.KVM) error {
	w.kvm = k
	w.host = make([]core.HostContext, len(k.Board.CPUs))
	for _, c := range k.Board.CPUs {
		c.HypHandler = k.HypTrap
	}
	return nil
}

// HostCall handles a stray HVC from the host: with VHE no host path uses
// HVC.
func (w *worldSwitch) HostCall(c *arm.CPU, _ *arm.Exception) { c.ERET() }

// Enter is the VHE world switch in. The CPU is in host kernel mode; no
// trap is taken to get here.
func (w *worldSwitch) Enter(c *arm.CPU, v *core.VCPU) {
	hc, start := &w.host[c.ID], c.Clock

	// Host state: callee-saved registers only. (The simulation snapshots
	// the full file because the CPU has one physical register set; the
	// charge models the architectural cost.)
	hc.GP = c.SaveGP()
	hc.CPSR = c.CPSR
	hc.PL1Software = c.PL1Handler
	hc.Runner = c.Runner
	c.Charge(hostCalleeSaved * c.Cost.RegSave)

	// VGIC and timers: unchanged from split mode (§3.5, §3.6).
	w.kvm.LoadVGICAndTimer(c, v)

	// Guest EL1 context: LOAD only. The host's values are parked in hc
	// for the simulation, but architecturally the host's EL1 accesses are
	// redirected to EL2 registers, so there is nothing to save first —
	// half the Table 1 "Context Switch" traffic disappears.
	for i, r := range arm.CtxControlRegs() {
		hc.CP15[i] = c.CP15.Regs[r]
		c.CP15.Regs[r] = v.Ctx.CP15[i]
	}
	c.Charge(uint64(arm.NumCtxControlRegs) * c.Cost.SysRegMove)

	// Trap configuration (clearing TGE), shadow IDs, Stage-2 and the full
	// guest register frame: guest-visible, identical to split mode.
	w.kvm.LoadGuest(c, v, start)
}

// Exit is the VHE world switch out. The CPU trapped to EL2 — which IS the
// host kernel, so after parking the guest state the handler simply
// continues; no second trap to reach the exit logic, no ERET to return to
// the host.
func (w *worldSwitch) Exit(c *arm.CPU, v *core.VCPU) {
	hc := &w.host[c.ID]

	// Guest GP registers (full frame; guest-visible); disable Stage-2 and
	// stop trapping (set TGE back).
	w.kvm.SaveGuest(c, v)

	// Guest EL1 context: SAVE only — the host's EL1 state never left its
	// EL2 registers.
	for i, r := range arm.CtxControlRegs() {
		v.Ctx.CP15[i] = c.CP15.Regs[r]
		c.CP15.Regs[r] = hc.CP15[i]
	}
	c.Charge(uint64(arm.NumCtxControlRegs) * c.Cost.SysRegMove)

	// Park the virtual timer and the VGIC (with the lazy skip) and a
	// guest-owned FPU, as split mode does.
	w.kvm.SaveTimerVGICAndVFP(c, v)

	// Host callee-saved registers; the handler continues in the kernel.
	c.RestoreGP(hc.GP)
	c.Charge(hostCalleeSaved * c.Cost.RegRestore)
	c.PL1Handler = hc.PL1Software
	c.Runner = hc.Runner
	c.SetCPSR(hc.CPSR)
}
