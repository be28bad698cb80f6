package bench

import (
	"fmt"
	"io"

	"kvmarm"
	"kvmarm/internal/arm"
	"kvmarm/internal/gic"
	"kvmarm/internal/hv"
	"kvmarm/internal/isa"
	"kvmarm/internal/kernel"
	"kvmarm/internal/machine"
	"kvmarm/internal/workloads"
)

// MicroRow is one row of Table 3.
type MicroRow struct {
	Name   string
	Values map[string]uint64
}

// Micro configuration column names, in the paper's order, plus the
// ARMv8.1 VHE column the paper's §7 anticipates ("running Linux in Hyp
// mode"): same guest-visible hardware as "ARM", but the host kernel owns
// the hypervisor privilege level, so the world switch moves less state.
var MicroConfigs = []string{"ARM", "ARM VHE", "ARM no VGIC/vtimers", "x86 laptop", "x86 server"}

// Table3 reproduces the micro-architectural cycle counts: Hypercall, Trap,
// I/O Kernel, I/O User, IPI and EOI+ACK on each platform (§5.2, Table 3).
func Table3() ([]MicroRow, error) {
	rows := []MicroRow{
		{Name: "Hypercall", Values: map[string]uint64{}},
		{Name: "Trap", Values: map[string]uint64{}},
		{Name: "I/O Kernel", Values: map[string]uint64{}},
		{Name: "I/O User", Values: map[string]uint64{}},
		{Name: "IPI", Values: map[string]uint64{}},
		{Name: "EOI+ACK", Values: map[string]uint64{}},
	}
	for _, cfg := range MicroConfigs {
		hc, iok, iou, eoi, err := measureMicro(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg, err)
		}
		rows[0].Values[cfg] = hc
		rows[2].Values[cfg] = iok
		rows[3].Values[cfg] = iou
		rows[5].Values[cfg] = eoi
		trap, err := measureTrap(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s trap: %w", cfg, err)
		}
		rows[1].Values[cfg] = trap
		ipi, err := measureIPI(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s ipi: %w", cfg, err)
		}
		rows[4].Values[cfg] = ipi
	}
	return rows, nil
}

// kernelEchoDev is a trivial in-kernel emulated device (vhost-style) for
// the I/O Kernel micro-benchmark. One implementation serves every backend
// through the hv interface.
type kernelEchoDev struct{}

func (kernelEchoDev) Name() string { return "echo" }
func (kernelEchoDev) Read(v hv.VCPU, off uint64, size int) uint64 {
	return 0x5A
}
func (kernelEchoDev) Write(v hv.VCPU, off uint64, size int, val uint64) {}

// echoDevBase is an otherwise unused IPA for the in-kernel echo device.
const echoDevBase = 0x1D00_0000

// microProgram builds the SARM32 guest used by the Hypercall, I/O Kernel,
// I/O User and EOI+ACK measurements: N iterations of each operation with
// HVC "lap" markers are overkill — instead each measurement runs its own
// tight loop and the harness reads the per-VM counters.
func microLoop(op func(a *isa.Asm), n int) []uint32 {
	a := isa.NewAsm(machine.RAMBase)
	a.MOVW(isa.R4, uint16(n))
	a.Label("loop")
	op(a)
	a.SUBI(isa.R4, isa.R4, 1)
	a.CMPI(isa.R4, 0)
	a.BNE("loop")
	a.HVC(kernel.PSCISystemOff)
	return a.MustAssemble()
}

// measureMicro measures the ISA-guest rows (Hypercall, I/O Kernel,
// I/O User, EOI+ACK) for one configuration, entirely through the hv
// interfaces — the same code path drives the ARM and x86 backends.
func measureMicro(cfg string) (hypercall, ioKernel, ioUser, eoiAck uint64, err error) {
	be, ok := hv.Lookup(cfg)
	if !ok {
		err = fmt.Errorf("unknown micro config %q", cfg)
		return
	}
	const n = 64
	run := func(op func(a *isa.Asm), extra func(vm hv.VM)) (uint64, error) {
		bytes := progBytes(microLoop(op, n+1))
		env, err := be.NewEnv(1)
		if err != nil {
			return 0, err
		}
		vm, err := env.HV.CreateVM(64 << 20)
		if err != nil {
			return 0, err
		}
		if extra != nil {
			extra(vm)
		}
		v, err := vm.CreateVCPU(0)
		if err != nil {
			return 0, err
		}
		if err := vm.WriteGuestMem(machine.RAMBase, bytes); err != nil {
			return 0, err
		}
		if err := v.SetOneReg(hv.RegPC, machine.RAMBase); err != nil {
			return 0, err
		}
		if err := v.SetOneReg(hv.RegCPSR, uint32(arm.ModeSVC)|arm.PSRI|arm.PSRF); err != nil {
			return 0, err
		}
		v.SetGuestSoftware(nil, &isa.Interp{})
		if _, err := v.StartThread(0); err != nil {
			return 0, err
		}
		if !env.Board.Run(80_000_000, func() bool { return env.Host.LiveCount() == 0 }) {
			return 0, fmt.Errorf("micro guest did not finish (%s)", v.State())
		}
		return env.Board.CPUs[0].Clock, nil
	}

	// Each measurement: total(op loop) − total(empty loop), divided by n.
	perOp := func(op func(a *isa.Asm), extra func(vm hv.VM)) (uint64, error) {
		base, err := run(func(a *isa.Asm) { a.NOP() }, extra)
		if err != nil {
			return 0, err
		}
		full, err := run(op, extra)
		if err != nil {
			return 0, err
		}
		if full <= base {
			return 0, nil
		}
		return (full - base) / uint64(n+1), nil
	}

	addEcho := func(vm hv.VM) {
		vm.AddKernelMMIO(echoDevBase, 0x1000, kernelEchoDev{})
	}

	if hypercall, err = perOp(func(a *isa.Asm) { a.HVC(1) }, nil); err != nil {
		return
	}
	if ioKernel, err = perOp(func(a *isa.Asm) {
		a.MOV32(isa.R1, echoDevBase)
		a.LDR(isa.R0, isa.R1, 0)
	}, addEcho); err != nil {
		return
	}
	if ioUser, err = perOp(func(a *isa.Asm) {
		a.MOV32(isa.R1, machine.UARTBase)
		a.LDR(isa.R0, isa.R1, 4)
	}, nil); err != nil {
		return
	}
	// EOI+ACK. On ARM: read IAR, write EOIR through the guest's CPU
	// interface (no trap with a VGIC; QEMU round trips without one). On
	// x86 there is no acknowledge read at all — the vector arrives by
	// IDT vectoring — and the EOI write exits to root mode; the cost is
	// exactly what the EOI exit path charges.
	if be.IsARM() {
		eoiAck, err = perOp(func(a *isa.Asm) {
			a.MOV32(isa.R1, machine.GICCPUBase)
			a.LDR(isa.R0, isa.R1, uint16(gic.GICCIar))
			a.STR(isa.R0, isa.R1, uint16(gic.GICCEoir))
		}, nil)
	} else {
		p := be.X86
		eoiAck = 30 /* IDT vectoring */ + p.VMExit + p.APICDecode + p.APICEmulate + p.VMEntry
	}
	return
}

// measureTrap measures the raw cost of switching the hardware into the
// hypervisor's mode and back: on ARM a Hyp trap manipulates two registers;
// on x86 the VMCS save/restore makes it two orders of magnitude costlier.
func measureTrap(cfg string) (uint64, error) {
	be, ok := hv.Lookup(cfg)
	if !ok {
		return 0, fmt.Errorf("unknown micro config %q", cfg)
	}
	b, err := be.NewBoard(1)
	if err != nil {
		return 0, err
	}
	c := b.CPUs[0]
	c.Secure = false
	c.SetCPSR(uint32(arm.ModeSVC) | arm.PSRI | arm.PSRF)
	c.HypHandler = func(c *arm.CPU, e *arm.Exception) { c.ERET() }
	before := c.Clock
	c.TakeException(&arm.Exception{Kind: arm.ExcHVC, HSR: arm.MakeHSR(arm.ECHVC, 0)})
	return c.Clock - before, nil
}

// measureIPI measures a virtual IPI round trip between two vCPUs of a
// 2-vCPU guest OS: send through the (virtual) distributor, receive on the
// other core, complete. It reports wall (board) time from send to the
// receiver's handler.
// "IPI measures time starting from sending an IPI until the other virtual
// core responds and completes the IPI": the receiver's handler responds
// with an IPI back; the sender's handler completes the round. The paper
// measures with both virtual cores "actively running inside the VM", so
// ipiRoundTrip keeps the target busy with a spinner and delivery takes the
// kick-the-running-vCPU path rather than a WFI wakeup.
func measureIPI(cfg string) (uint64, error) {
	sys, err := microSystem(cfg, 2)
	if err != nil {
		return 0, err
	}
	return ipiRoundTrip(sys)
}

// microSystem builds a booted guest system of the given configuration for
// the kernel-level micro-benchmarks.
func microSystem(cfg string, cpus int) (*workloads.System, error) {
	sys, err := kvmarm.NewVirt(cfg, cpus, nil)
	if err != nil {
		return nil, err
	}
	return sys.System, nil
}

func progBytes(words []uint32) []byte {
	out := make([]byte, 0, len(words)*4)
	for _, w := range words {
		out = append(out, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	return out
}

// PrintMicro renders Table 3.
func PrintMicro(w io.Writer, rows []MicroRow) {
	fmt.Fprintf(w, "\nTable 3 — Micro-Architectural Cycle Counts\n")
	fmt.Fprintf(w, "%-12s", "Micro Test")
	for _, c := range MicroConfigs {
		fmt.Fprintf(w, "%22s", c)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s", r.Name)
		for _, c := range MicroConfigs {
			fmt.Fprintf(w, "%22d", r.Values[c])
		}
		fmt.Fprintln(w)
	}
}
