// Package kernel implements minOS, the miniature operating system that
// stands in for Linux on both sides of the paper's design: it is the host
// kernel whose services (scheduler, memory allocation, software timers,
// interrupt handling) KVM/ARM's highvisor reuses, and — unmodified — the
// guest kernel that runs inside VMs.
//
// The same kernel image boots in either role. Per the boot protocol the
// paper helped standardize (§4 "Involve the community early"), the
// bootloader enters the kernel in Hyp mode when the hardware has
// virtualization extensions; the kernel then installs a stub Hyp vector and
// drops to SVC. A kernel that starts in SVC (which is how a VM boots)
// simply runs without Hyp access — and uses the virtual timer and whatever
// the hypervisor placed at the GIC CPU interface address, making the guest
// kernel literally the same code.
package kernel

import (
	"fmt"

	"kvmarm/internal/arm"
	"kvmarm/internal/gic"
	"kvmarm/internal/mmu"
)

// Logical memory layout inside the kernel's (guest-)physical space.
const (
	// RAMBase is where the kernel believes RAM starts (same value for
	// host PA and guest IPA space, like the paper's platforms).
	RAMBase = 0x8000_0000

	// UserSplit: virtual addresses below it are per-process (TTBR0);
	// addresses at or above translate through the shared kernel table
	// (TTBR1), which identity-maps RAM and devices.
	UserSplit = 0x1000_0000
)

// IPI numbers (SGIs).
const (
	IPIReschedule = 1
	IPICall       = 2
)

// HWConfig tells the kernel where its hardware lives. Host and guest use
// the same values; what *backs* the addresses differs (for a VM, the
// distributor traps to the virtual distributor, the CPU interface is the
// VGIC virtual interface, and the virtio devices are QEMU-emulated).
type HWConfig struct {
	GICDistBase uint64
	GICCPUBase  uint64
	UARTBase    uint64
	NetBase     uint64
	BlkBase     uint64
	ConBase     uint64
	IRQNet      int
	IRQBlk      int
	IRQCon      int

	// VSGIBase, when nonzero, is the direct virtual-SGI register (the
	// §6 hardware extension): the kernel's IPI path writes it instead
	// of the distributor's SGIR, avoiding the trap entirely inside VMs.
	VSGIBase uint64

	// AckHook/EOIHook, when set, replace the MMIO ACK/EOI path: the
	// x86-style interrupt architecture, where the vector arrives through
	// the IDT without an acknowledge read, and EOI is an APIC write
	// (which exits to root mode inside a VM — §2 "Comparison with x86").
	AckHook func(cpu int, c *arm.CPU) (id, src int)
	EOIHook func(cpu int, c *arm.CPU, id int)
}

// Costs models the cycle cost of kernel work that our Go bodies do not
// perform instruction by instruction.
type Costs struct {
	SyscallWork   uint64 // kernel-side work of a trivial syscall
	SwitchWork    uint64 // scheduler bookkeeping + cache effects of switching
	IRQWork       uint64 // generic interrupt bookkeeping
	ForkWork      uint64 // process creation besides page copies
	ExecWork      uint64
	PageZero      uint64 // zeroing a fresh page (cached stores)
	FaultWork     uint64 // page-fault path: vma lookup, accounting
	SignalWork    uint64 // signal delivery + handler setup/return
	PipeCopy      uint64 // per-byte-batch copy cost for pipes
	UserWork      uint64 // kernel->user->kernel round trip on the host
	WaitQueueWork uint64
}

// DefaultCosts is calibrated against lmbench-scale numbers on a Cortex-A15.
func DefaultCosts() Costs {
	return Costs{
		SyscallWork:   180,
		SwitchWork:    3000,
		IRQWork:       250,
		ForkWork:      2500,
		ExecWork:      4000,
		PageZero:      420,
		FaultWork:     2400,
		SignalWork:    1500,
		PipeCopy:      300,
		UserWork:      1200,
		WaitQueueWork: 80,
	}
}

// Stats counts kernel activity; the benchmarks read them.
type Stats struct {
	Syscalls     uint64
	Switches     uint64
	IRQs         uint64
	TimerIRQs    uint64
	ReschedIPIs  uint64
	PageFaults   uint64
	Forks        uint64
	Execs        uint64
	CounterReads uint64
	SoftTimers   uint64
}

// Kernel is one minOS instance (host, or a guest inside a VM).
type Kernel struct {
	Name string

	// NumCPUs is the number of (v)CPUs this kernel manages.
	NumCPUs int
	// CPU returns the arm.CPU logical cpu i currently executes on. For
	// the host this is fixed; for a guest it is whichever physical CPU
	// has that vCPU loaded.
	CPU func(i int) *arm.CPU

	HW    HWConfig
	Cost  Costs
	Stats Stats

	// Mem is the kernel's view of its physical memory (host: RAM PAs;
	// guest: IPAs accessed through Stage-2, including faults).
	Mem PhysIO
	// DirectGIC, set on host kernels only, lets wakeups raise IPIs
	// against the physical distributor regardless of what context the
	// current CPU happens to be executing (a wakeup can fire from a
	// device-completion event while a VM occupies the CPU; the IPI must
	// reach the physical GIC, which then forces a guest exit on the
	// target core). Guest kernels always go through MMIO, which traps
	// to their virtual distributor.
	DirectGIC *gic.GIC
	// Alloc hands out page frames from the kernel's physical space.
	Alloc *PageAllocator

	// UseVirtTimer is chosen at boot: a kernel entered in Hyp mode (the
	// host) keeps the physical timer; one entered in SVC (a guest) uses
	// the virtual timer, which the hardware lets it program freely.
	UseVirtTimer bool
	// BootedInHyp records the boot mode (enables KVM on the host).
	BootedInHyp bool

	// KernelTable is the shared TTBR1 identity table ("kernel half").
	KernelTable *mmu.Builder

	scheds      []*cpuSched
	timers      []*softTimers
	pl1Handlers []arm.ExcHandler
	drivers     [numDrivers]*devDriver
	procs       map[int]*Proc
	dead        int // processes in procs that reached ProcDead
	nextPID     int
	// nextASID and nextTimerID are this kernel's ASID and soft-timer ID
	// allocators: per kernel, so what one kernel allocates never moves
	// another's numbering.
	nextASID    uint8
	nextTimerID uint64

	// irqHandlers dispatches device SPIs.
	irqHandlers map[int]func(k *Kernel, cpu int)

	// HypStubInstalled is set when the boot path left a stub vector in
	// Hyp mode for later re-entry (the KVM init hook).
	HypStubInstalled bool
	// OnHypStub, when installed by KVM init via the stub, receives HVC
	// calls made from the kernel.
	OnHypStub func(c *arm.CPU, e *arm.Exception)

	// OnSchedSwitch, if set, observes every context switch: p was
	// switched onto logical cpu after waiting waitTicks counter ticks
	// runnable (its steal time for this slice). The hypervisor installs
	// it on the host kernel to attribute steal time to vCPU threads.
	OnSchedSwitch func(cpu int, p *Proc, waitTicks uint64)
	// OnSchedPreempt, if set, observes p being forced off logical cpu
	// while still runnable (slice-tick or wakeup preemption).
	OnSchedPreempt func(cpu int, p *Proc)

	// OnIdle, if set, is called when a CPU has nothing to run (used by
	// tests; the default action is WFI).
	OnIdle func(cpu int)
	// OnIPICall, if set, runs in interrupt context when the cross-call
	// IPI arrives (smp_call_function handler).
	OnIPICall func(cpu int)
}

// PhysIO is the kernel's access to its own physical address space.
type PhysIO interface {
	Read64(pa uint64) (uint64, error)
	Write64(pa uint64, v uint64) error
}

// Config configures New.
type Config struct {
	Name    string
	NumCPUs int
	CPU     func(i int) *arm.CPU
	HW      HWConfig
	Mem     PhysIO
	// DirectGIC: see Kernel.DirectGIC (host kernels only).
	DirectGIC *gic.GIC
	// AllocBase/AllocSize bound the page allocator within the kernel's
	// physical space.
	AllocBase uint64
	AllocSize uint64
}

// New creates a kernel; call Boot to bring it up.
func New(cfg Config) *Kernel {
	k := &Kernel{
		Name:        cfg.Name,
		NumCPUs:     cfg.NumCPUs,
		CPU:         cfg.CPU,
		HW:          cfg.HW,
		Cost:        DefaultCosts(),
		Mem:         cfg.Mem,
		DirectGIC:   cfg.DirectGIC,
		procs:       make(map[int]*Proc),
		irqHandlers: make(map[int]func(*Kernel, int)),
		nextPID:     1,
	}
	k.Alloc = NewPageAllocator(cfg.AllocBase, cfg.AllocSize)
	k.pl1Handlers = make([]arm.ExcHandler, cfg.NumCPUs)
	for i := 0; i < cfg.NumCPUs; i++ {
		k.scheds = append(k.scheds, newCPUSched(k, i))
		k.timers = append(k.timers, newSoftTimers())
	}
	return k
}

// Boot brings the kernel up on every CPU. Each CPU is expected to be in
// the mode the bootloader left it in: Hyp on virtualization-capable
// hardware (host), SVC inside a VM.
func (k *Kernel) Boot() error {
	c0 := k.CPU(0)
	k.BootedInHyp = c0.Mode() == arm.ModeHYP
	// §4: the kernel "simply tests when it starts up whether it is in
	// Hyp mode, in which case it installs a trap handler to provide a
	// hook to re-enter Hyp mode at a later stage".
	if k.BootedInHyp {
		k.UseVirtTimer = false
	} else {
		k.UseVirtTimer = true
	}

	// Build the shared kernel half: identity map devices and RAM,
	// privileged access only.
	kt, err := mmu.NewBuilder(mmu.TableKernel, k.Mem, k.Alloc)
	if err != nil {
		return fmt.Errorf("kernel: building kernel table: %w", err)
	}
	k.KernelTable = kt
	if err := kt.MapRange(UserSplit, UserSplit, 0x1000_0000, mmu.MapFlags{W: true, XN: true}); err != nil {
		return err // device window 0x1000_0000..0x2000_0000
	}
	if err := kt.MapRange(0x2C00_0000, 0x2C00_0000, 0x0040_0000, mmu.MapFlags{W: true, XN: true}); err != nil {
		return err // GIC window
	}
	if err := kt.MapRange(RAMBase, RAMBase, k.Alloc.Limit()-RAMBase, mmu.MapFlags{W: true}); err != nil {
		return err
	}

	return k.BootSecondary(0)
}

// BootAll boots the kernel and brings up every CPU eagerly (the host
// case, where all physical CPUs are present from the start). A guest
// kernel instead boots CPU 0 and brings secondaries up as its vCPUs first
// run (the PSCI CPU_ON pattern).
func (k *Kernel) BootAll() error {
	if err := k.Boot(); err != nil {
		return err
	}
	for i := 1; i < k.NumCPUs; i++ {
		if err := k.BootSecondary(i); err != nil {
			return err
		}
	}
	return nil
}

// BootSecondary performs the per-CPU bring-up of logical CPU i on
// whatever core it currently executes on.
func (k *Kernel) BootSecondary(i int) error {
	c := k.CPU(i)
	if k.BootedInHyp && c.Mode() == arm.ModeHYP {
		k.installHypStub(c)
		// Drop to SVC: "legacy kernels ... always make an explicit
		// switch into kernel mode as their first instruction".
		if err := c.EnterMode(arm.ModeSVC); err != nil {
			return err
		}
	}
	k.attachCPU(i, c)
	k.gicInitCPU(i, c)
	k.timerInitCPU(i, c)
	return nil
}

// installHypStub leaves a minimal vector in Hyp mode whose only job is to
// let privileged software re-enter Hyp mode later — the mechanism KVM's
// init uses to install the real lowvisor vectors.
func (k *Kernel) installHypStub(c *arm.CPU) {
	k.HypStubInstalled = true
	c.HypHandler = func(c *arm.CPU, e *arm.Exception) {
		if k.OnHypStub != nil {
			k.OnHypStub(c, e)
			return
		}
		// Default stub: nothing installed; return to the caller.
		c.ERET()
	}
}

// attachCPU installs the kernel's PL1 exception handler and scheduler
// runner on a CPU. The world switch calls this when loading a vCPU.
func (k *Kernel) attachCPU(i int, c *arm.CPU) {
	h := func(c *arm.CPU, e *arm.Exception) { k.handleException(i, c, e) }
	k.pl1Handlers[i] = h
	c.PL1Handler = h
	c.Runner = k.scheds[i]
	c.CP15.Regs[arm.SysTTBCR] = UserSplit
	hi := uint64(k.KernelTable.Root)
	c.CP15.Write64(arm.SysTTBR1Lo, hi)
	c.CP15.Regs[arm.SysSCTLR] |= arm.SCTLRM
	c.SetCPSR(c.CPSR &^ (arm.PSRI | arm.PSRF)) // open interrupts
}

// Runner returns the scheduler runner for logical CPU i (the world switch
// re-installs it when entering the VM).
func (k *Kernel) Runner(i int) arm.Runner { return k.scheds[i] }

// PL1HandlerFor returns the exception handler attachCPU installed for
// logical CPU i (nil before BootSecondary(i)).
func (k *Kernel) PL1HandlerFor(i int) arm.ExcHandler { return k.pl1Handlers[i] }

// HandleExceptionOn lets the hypervisor re-deliver an exception to this
// kernel (unused in normal operation; exceptions arrive via PL1Handler).
func (k *Kernel) HandleExceptionOn(i int, c *arm.CPU, e *arm.Exception) {
	k.handleException(i, c, e)
}

// handleException is the kernel's PL1 trap entry.
func (k *Kernel) handleException(cpu int, c *arm.CPU, e *arm.Exception) {
	switch e.Kind {
	case arm.ExcSVC:
		k.Stats.Syscalls++
		k.handleSyscall(cpu, c, e)
	case arm.ExcIRQ, arm.ExcVIRQ:
		k.Stats.IRQs++
		k.handleIRQ(cpu, c)
	case arm.ExcDataAbort, arm.ExcPrefetchAbort:
		k.Stats.PageFaults++
		k.handleFault(cpu, c, e)
	case arm.ExcUndef:
		k.killCurrent(cpu, c, "undefined instruction")
	default:
		k.killCurrent(cpu, c, e.Kind.String())
	}
}

// RegisterIRQ attaches a device interrupt handler and enables the SPI,
// issuing the distributor programming from logical CPU 0.
func (k *Kernel) RegisterIRQ(irq int, h func(k *Kernel, cpu int)) {
	k.RegisterIRQOn(k.CPU(0), irq, h)
}

// Charge charges cycles to logical CPU i's current core.
func (k *Kernel) Charge(i int, n uint64) { k.CPU(i).Charge(n) }
