// Package x86 models the Intel VT-x virtualization architecture as the
// comparison baseline of the paper's §2 ("Comparison with x86") and §5.
//
// The structural differences from ARM that the paper measures:
//
//   - Root vs non-root mode is orthogonal to the CPU protection rings, so
//     the whole host kernel runs in root mode and there is no split-mode
//     double trap — but every transition saves and restores the entire VM
//     control block (VMCS) in hardware, making the raw trap far more
//     expensive than ARM's two-register Hyp entry (Table 3: 632–821 vs 27
//     cycles).
//   - The world switch is a single instruction (VMLAUNCH/VMRESUME): no
//     software save/restore of 38 GP + 26 control registers, and no slow
//     MMIO to interrupt-controller state.
//   - There was no virtual APIC at the time: interrupts are injected by
//     the hypervisor on entry, the vector arrives through the IDT (no ACK
//     read), but every EOI write exits to root mode and APIC MMIO accesses
//     require software instruction decode.
//   - The TSC read does not trap even without virtualization support in
//     the counter hardware; APIC timer programming exits.
//   - EPT gives the same two-dimensional page walks as ARM Stage-2.
//
// The package provides calibrated cost profiles for the paper's two x86
// platforms; Apply puts one on a CPU of the shared machine model, and
// internal/kvmx86 charges the rest.
package x86

import "kvmarm/internal/arm"

// Profile is the cost/behaviour profile of one x86 platform.
type Profile struct {
	Name string

	// VMExit is the hardware cost of trapping from non-root to root
	// mode: the VMCS state save makes it roughly the cost of a full
	// world switch (Table 3 "Trap").
	VMExit uint64
	// VMEntry is the VMRESUME cost (hardware state load).
	VMEntry uint64

	// APICEmulate is the in-kernel APIC emulation work per exit
	// (includes the software locking the paper mentions).
	APICEmulate uint64
	// APICDecode is the instruction-decode work x86 KVM performs for
	// APIC MMIO accesses ("x86 APIC MMIO operations require KVM x86 to
	// perform instruction decoding not needed on ARM").
	APICDecode uint64
	// HWIPI is the underlying physical IPI delivery cost ("the
	// underlying hardware IPI on x86 is expensive").
	HWIPI uint64

	// KernelToUser is the host kernel→user→kernel round trip for QEMU
	// exits; x86 KVM "saves and restores additional state lazily when
	// going to user space", making it more expensive than ARM's.
	KernelToUser uint64
	// QEMUWork is the user-space emulation work per exit.
	QEMUWork uint64

	// TrapToKernel is the native exception/syscall entry cost.
	TrapToKernel uint64

	// InjectOnEntry is the event-injection work when entering with a
	// pending virtual interrupt.
	InjectOnEntry uint64

	// TimerEmulate is the in-kernel APIC-timer emulation work per
	// trapped timer access.
	TimerEmulate uint64

	// IOKernelWork is the in-kernel device emulation work per MMIO exit
	// (the I/O Kernel row of Table 3).
	IOKernelWork uint64
}

// Laptop is the 2011 MacBook Air (dual-core 1.8 GHz Core i7-2677M) of the
// paper's §5.1, calibrated so the Table 3 shape holds.
func Laptop() Profile {
	return Profile{
		Name:          "x86-laptop",
		VMExit:        640,
		VMEntry:       620,
		APICEmulate:   330,
		APICDecode:    260,
		HWIPI:         7800,
		KernelToUser:  6600,
		QEMUWork:      2500,
		TrapToKernel:  70,
		InjectOnEntry: 180,
		TimerEmulate:  260,
		IOKernelWork:  1300,
	}
}

// Server is the OVH SP 3 (dual-core 3.4 GHz Xeon E3-1245v2) platform.
// Slightly higher cycle counts at its clock rate, as measured in Table 3.
func Server() Profile {
	return Profile{
		Name:          "x86-server",
		VMExit:        840,
		VMEntry:       760,
		APICEmulate:   360,
		APICDecode:    280,
		HWIPI:         9400,
		KernelToUser:  7200,
		QEMUWork:      2800,
		TrapToKernel:  80,
		InjectOnEntry: 200,
		TimerEmulate:  280,
		IOKernelWork:  1350,
	}
}

// Apply gives one CPU of the shared machine model this platform's trap
// costs: root-mode transitions save the whole VMCS in hardware, and
// programming the guest timer exits to root mode.
func (p *Profile) Apply(c *arm.CPU) {
	c.Feat.TimerWriteTraps = true
	c.Cost.TrapToHyp = p.VMExit
	c.Cost.TrapToPL1 = p.TrapToKernel
	c.Cost.ERET = 20
}
