package arm

import (
	"fmt"

	"kvmarm/internal/bus"
	"kvmarm/internal/mmu"
)

// Runner is the software currently executing on a CPU between exceptions:
// the SARM32 interpreter running guest/user code, a workload micro-op
// engine, or nothing (idle).
type Runner interface {
	// Step executes one unit of work, charging cycles to the CPU.
	Step(c *CPU)
}

// TimerBackend is the per-CPU generic timer, reached through CP15 CNT*
// registers (implemented by internal/timer).
type TimerBackend interface {
	ReadTimerReg(cpuID int, r SysReg, now uint64) uint32
	WriteTimerReg(cpuID int, r SysReg, v uint32, now uint64)
}

// Features gates optional hardware. The paper's "ARM no VGIC/vtimers"
// configuration (Table 3, Figures 3–7) is modeled by clearing the first
// two. TimerWriteTraps models the x86 comparison point: TSC reads never
// trap, but guest timer *programming* (the APIC timer) exits to root mode
// (§2 "Comparison with x86").
type Features struct {
	HasVGIC         bool
	HasVirtTimer    bool
	TimerWriteTraps bool
}

// CPU is one ARMv7 core.
type CPU struct {
	ID    int
	Clock uint64 // cycle counter (CCNT analogue)

	Regs RegFile
	CPSR uint32
	CP15 CP15
	VFP  VFP
	// MVBAR is the monitor vector base (secure side).
	MVBAR uint32
	// Secure tracks the TrustZone world; bootloaders switch to
	// non-secure early (§2). Monitor mode is always secure.
	Secure bool

	Bus   *bus.Bus
	MMU   *mmu.MMU
	Timer TimerBackend
	Cost  Costs
	Feat  Features

	// Interrupt input lines, driven by the GIC (physical) and VGIC
	// (virtual).
	IRQLine  bool
	FIQLine  bool
	VIRQLine bool

	// Software attached to each privileged context. PL1Handler is
	// swapped on world switch: host kernel vs guest kernel.
	PL1Handler ExcHandler
	HypHandler ExcHandler
	MonHandler ExcHandler

	Runner Runner

	// SEVBroadcast, wired by the board, delivers SEV to every core.
	SEVBroadcast func()

	// WFIWait is set while the CPU sleeps in WFI.
	WFIWait bool
	// eventPending implements the WFE/SEV event register.
	eventPending bool
	// tctx is the translation regime of the access in progress: regime
	// refills it for every access, and nothing reads it in between.
	tctx mmu.Context

	Traps TrapCounters
	// Insns counts instructions retired by the interpreter.
	Insns uint64

	// Halted stops the simulation loop for this CPU (test harness).
	Halted bool
}

// NewCPU creates a core attached to b with the default cost model.
func NewCPU(id int, b *bus.Bus) *CPU {
	c := &CPU{ID: id, Bus: b, Cost: DefaultCosts(), Feat: Features{HasVGIC: true, HasVirtTimer: true}}
	if b != nil && b.RAM != nil {
		c.MMU = mmu.New(b.RAM, c.Cost.WalkReadRAM)
	}
	c.Reset()
	return c
}

// Reset puts the core into its power-up state: secure SVC mode with MMU and
// Stage-2 off ("ARM CPUs always power up starting in the secure world").
func (c *CPU) Reset() {
	c.Regs = RegFile{}
	c.CP15 = CP15{}
	c.VFP = VFP{}
	c.Secure = true
	c.SetCPSR(uint32(ModeSVC) | PSRI | PSRF | PSRA)
	c.CP15.Regs[SysMIDR] = 0x412FC0F0 // Cortex-A15 r2p0
	c.CP15.Regs[SysMPIDR] = 0x80000000 | uint32(c.ID)
	c.CP15.Regs[SysVPIDR] = c.CP15.Regs[SysMIDR]
	c.CP15.Regs[SysVMPIDR] = c.CP15.Regs[SysMPIDR]
	c.CP15.Regs[SysCNTFRQ] = 24_000_000
	c.WFIWait = false
	c.Halted = false
}

// Mode returns the current processor mode.
func (c *CPU) Mode() Mode { return Mode(c.CPSR & PSRModeMask) }

// SetCPSR writes the CPSR, keeping the register-file bank view in sync.
func (c *CPU) SetCPSR(v uint32) {
	c.CPSR = v
	c.Regs.setMode(Mode(v & PSRModeMask))
}

func (c *CPU) setMode(m Mode) {
	c.CPSR = c.CPSR&^PSRModeMask | uint32(m)
	c.Regs.setMode(m)
}

// EnterMode switches to mode m without taking an exception (CPS); only
// privileged software may call it.
func (c *CPU) EnterMode(m Mode) error {
	if c.Mode() == ModeUSR {
		return fmt.Errorf("arm: CPS from user mode")
	}
	if m == ModeHYP && c.Mode() != ModeHYP && c.Mode() != ModeMON {
		// Hyp mode can only be entered by exception (HVC) or from
		// monitor mode; this property is what forces the boot
		// protocol of §4 "Involve the community early".
		return fmt.Errorf("arm: cannot CPS into Hyp mode from %s", c.Mode())
	}
	c.setMode(m)
	return nil
}

// NonSecure reports whether the core runs in the non-secure world.
func (c *CPU) NonSecure() bool { return !c.Secure }

// HCR returns the current hypervisor configuration register.
func (c *CPU) HCR() uint32 { return c.CP15.Regs[SysHCR] }

// InGuest reports whether a VM execution context is active (Stage-2
// translation on — how the hardware distinguishes "the VM runs in
// kernel/user mode" from "the host runs in kernel/user mode").
func (c *CPU) InGuest() bool {
	return c.HCR()&HCRVM != 0 && c.Mode() != ModeHYP && c.Mode() != ModeMON
}

// regime fills ctx, in place, with the MMU translation regime of the
// current mode: Hyp's own Stage-1 tables, or the PL1&0 tables with
// Stage 2 when HCR.VM is set.
func (c *CPU) regime(ctx *mmu.Context) {
	m := c.Mode()
	if m != ModeHYP {
		c.pl1Regime(ctx, m == ModeUSR, c.HCR()&HCRVM != 0)
		return
	}
	ctx.S1Enabled = c.CP15.Regs[SysHSCTLR]&SCTLRM != 0
	ctx.Format = mmu.FormatHyp
	ctx.TTBR0 = c.CP15.Read64(SysHTTBRLo)
	ctx.TTBR1, ctx.TTBR1Base, ctx.ASID, ctx.User = 0, 0, 0, false
	ctx.S2Enabled, ctx.VTTBR, ctx.VMID = false, 0, 0
}

// pl1Regime fills ctx with the PL1&0 regime (a kernel's SCTLR, TTBR0/1,
// TTBCR and ASID; user marks a PL0 access) and, when s2 is set, the
// Stage-2 regime VTTBR names.
func (c *CPU) pl1Regime(ctx *mmu.Context, user, s2 bool) {
	ctx.S1Enabled = c.CP15.Regs[SysSCTLR]&SCTLRM != 0
	ctx.Format = mmu.FormatKernel
	ctx.TTBR0 = c.CP15.Read64(SysTTBR0Lo)
	ctx.TTBR1 = c.CP15.Read64(SysTTBR1Lo)
	ctx.TTBR1Base = c.CP15.Regs[SysTTBCR]
	ctx.ASID = uint8(c.CP15.Regs[SysCONTEXTIDR])
	ctx.User = user
	ctx.S2Enabled, ctx.VTTBR, ctx.VMID = s2, 0, 0
	if s2 {
		vttbr := c.CP15.Read64(SysVTTBRLo)
		ctx.VTTBR = vttbr & mmu.DescAddrMask
		ctx.VMID = uint8(vttbr >> 48)
	}
}

// FlushASID performs TLBIASID: it invalidates the Stage-1 entries tagged
// with asid under the VMID of the current regime, so a guest's (or the
// host's) maintenance never reaches another VM's translations.
func (c *CPU) FlushASID(asid uint8) {
	c.regime(&c.tctx)
	c.MMU.FlushASID(c.tctx.VMID, asid)
}

// MemFaultError wraps an MMU fault for Go callers using TryRead/TryWrite.
type MemFaultError struct{ Fault *mmu.Fault }

func (e *MemFaultError) Error() string { return e.Fault.Error() }

// TryRead translates and reads size bytes at va without raising exceptions;
// privileged Go code (kernel services) uses it and handles faults itself.
func (c *CPU) TryRead(va uint32, size int) (uint64, error) {
	c.regime(&c.tctx)
	res, f := c.MMU.Translate(&c.tctx, va, mmu.Load)
	if f != nil {
		return 0, &MemFaultError{Fault: f}
	}
	c.Charge(res.Cycles)
	c.Bus.Accessor = c.ID
	v, cost, err := c.Bus.Read(res.PA, size)
	c.Charge(cost)
	return v, err
}

// TryWrite is the store counterpart of TryRead.
func (c *CPU) TryWrite(va uint32, size int, v uint64) error {
	c.regime(&c.tctx)
	res, f := c.MMU.Translate(&c.tctx, va, mmu.Store)
	if f != nil {
		return &MemFaultError{Fault: f}
	}
	c.Charge(res.Cycles)
	c.Bus.Accessor = c.ID
	cost, err := c.Bus.Write(res.PA, size, v)
	c.Charge(cost)
	return err
}

// abortFor converts an MMU fault into the architectural exception: Stage-1
// faults abort to PL1 (the guest kernel handles its own page faults);
// Stage-2 faults trap to Hyp mode with the IPA in HPFAR (§3.3).
func (c *CPU) abortFor(f *mmu.Fault, iss uint32) *Exception {
	if f.Stage == 2 {
		ec := ECDataAbort
		if f.Access == mmu.Fetch {
			ec = ECInstrAbort
		}
		return &Exception{Kind: ExcHypTrap, HSR: MakeHSR(ec, iss), FaultVA: f.VA, FaultIPA: f.IPA}
	}
	kind := ExcDataAbort
	if f.Access == mmu.Fetch {
		kind = ExcPrefetchAbort
	}
	return &Exception{Kind: kind, FaultVA: f.VA}
}

// Access performs a guest-path load or store: on a fault the architectural
// exception is taken and taken=true is returned. The iss describes the
// access for the Stage-2 abort syndrome; pass issValid=false for
// instruction classes that do not populate the syndrome (forcing the
// hypervisor onto its software-decode path).
func (c *CPU) Access(va uint32, size int, at mmu.AccessType, v *uint64, issValid bool, rt int) (taken bool) {
	c.regime(&c.tctx)
	res, f := c.MMU.Translate(&c.tctx, va, at)
	if f != nil {
		sizeLog2 := 0
		for 1<<sizeLog2 < size {
			sizeLog2++
		}
		iss := DataAbortISS(issValid, sizeLog2, rt, at == mmu.Store)
		c.TakeException(c.abortFor(f, iss))
		return true
	}
	c.Charge(res.Cycles)
	c.Bus.Accessor = c.ID
	var err error
	if at == mmu.Store {
		var cost uint64
		cost, err = c.Bus.Write(res.PA, size, *v)
		c.Charge(cost)
	} else {
		var cost uint64
		*v, cost, err = c.Bus.Read(res.PA, size)
		c.Charge(cost)
	}
	if err != nil {
		// External abort: a hole in the physical map.
		c.TakeException(&Exception{Kind: ExcDataAbort, FaultVA: va})
		return true
	}
	return false
}

// TranslatePC translates the current PC for an instruction fetch without
// reading it, taking the architectural prefetch abort on failure — the
// same exception, with the same syndrome, that Fetch32 would take. Block
// dispatch uses it to pay the fetch translation once per basic block.
func (c *CPU) TranslatePC() (uint64, bool) {
	c.regime(&c.tctx)
	res, f := c.MMU.Translate(&c.tctx, c.Regs.PC(), mmu.Fetch)
	if f != nil {
		c.TakeException(c.abortFor(f, DataAbortISS(true, 2, 0, false)))
		return 0, false
	}
	c.Charge(res.Cycles)
	return res.PA, true
}

// Fetch32 reads the instruction at the current PC, taking a prefetch abort
// on failure.
func (c *CPU) Fetch32() (uint32, bool) {
	var v uint64
	if taken := c.Access(c.Regs.PC(), 4, mmu.Fetch, &v, true, 0); taken {
		return 0, false
	}
	return uint32(v), true
}

// SendEvent implements SEV: wakes WFE waiters.
func (c *CPU) SendEvent() { c.eventPending = true }

// DoWFI executes WFI semantics: trap to Hyp if configured (HCR.TWI — the
// hypervisor must retain control of the physical CPU, §3.2), otherwise
// sleep until an interrupt is pending.
func (c *CPU) DoWFI() {
	if c.Mode() != ModeHYP && c.HCR()&HCRTWI != 0 {
		c.TakeException(&Exception{Kind: ExcHypTrap, HSR: MakeHSR(ECWFx, WFxISS(false))})
		return
	}
	c.WFIWait = true
}

// DoWFE executes WFE: consume a pending event or sleep/trap like WFI.
func (c *CPU) DoWFE() {
	if c.eventPending {
		c.eventPending = false
		return
	}
	if c.Mode() != ModeHYP && c.HCR()&HCRTWE != 0 {
		c.TakeException(&Exception{Kind: ExcHypTrap, HSR: MakeHSR(ECWFx, WFxISS(true))})
		return
	}
	c.WFIWait = true
}

// InterruptPending reports whether an unmasked interrupt is deliverable.
func (c *CPU) InterruptPending() bool {
	if c.FIQLine && c.CPSR&PSRF == 0 {
		return true
	}
	if c.IRQLine && c.CPSR&PSRI == 0 {
		return true
	}
	if c.VIRQLine && c.CPSR&PSRI == 0 && c.InGuest() {
		return true
	}
	return false
}

// WakeIfInterrupted clears WFI sleep when any interrupt is pending,
// regardless of CPSR masks (the architectural WFI wake rule).
func (c *CPU) WakeIfInterrupted() {
	if c.WFIWait && (c.IRQLine || c.FIQLine || (c.VIRQLine && c.InGuest())) {
		c.WFIWait = false
		c.Charge(c.Cost.WFIWake)
	}
}

// DeliverInterrupts takes any pending, unmasked interrupt. Returns true if
// an exception was delivered.
func (c *CPU) DeliverInterrupts() bool {
	if c.FIQLine && c.CPSR&PSRF == 0 {
		c.TakeException(&Exception{Kind: ExcFIQ})
		return true
	}
	if c.IRQLine && c.CPSR&PSRI == 0 {
		c.TakeException(&Exception{Kind: ExcIRQ})
		return true
	}
	if c.VIRQLine && c.CPSR&PSRI == 0 && c.InGuest() {
		// The VGIC CPU interface raises virtual interrupts directly to
		// the VM's kernel mode — no hypervisor involvement (§2).
		c.TakeException(&Exception{Kind: ExcVIRQ})
		return true
	}
	return false
}

// Step advances the CPU by one unit: deliver interrupts, then run the
// attached Runner. Sleeping or halted CPUs just burn a cycle so the board
// clock can advance past them.
func (c *CPU) Step() {
	c.WakeIfInterrupted()
	if c.Halted || c.WFIWait {
		c.Charge(1)
		return
	}
	if c.DeliverInterrupts() {
		return
	}
	if c.Runner == nil {
		c.Charge(1)
		return
	}
	c.Runner.Step(c)
}
