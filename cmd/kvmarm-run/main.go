// Command kvmarm-run boots a VM under a registered backend (KVM/ARM by
// default), runs a small guest workload that writes to the virtual
// console, and prints the console output along with hypervisor statistics
// — an end-to-end demonstration of the stack:
//
//	kvmarm-run
//	kvmarm-run -backend arm-novgic
//
// With -migrate-to, it instead live-migrates a running guest between two
// hypervisor instances (any same-family pair of registered backends, e.g.
// "ARM" to "ARM VHE") and reports the pages moved and the downtime window:
//
//	kvmarm-run -migrate-to "ARM VHE"
//	kvmarm-run -backend "KVM x86 laptop" -migrate-to "KVM x86 server"
package main

import (
	"flag"
	"fmt"
	"os"

	"kvmarm"
	"kvmarm/internal/arm"
	"kvmarm/internal/hv"
	"kvmarm/internal/isa"
	"kvmarm/internal/kernel"
	"kvmarm/internal/machine"
)

func main() {
	cpus := flag.Int("cpus", 2, "number of vCPUs")
	backend := flag.String("backend", "ARM", "backend to boot (the migration source with -migrate-to)")
	migrateTo := flag.String("migrate-to", "", "live-migrate a running guest to this backend and exit")
	flag.Parse()

	if *migrateTo != "" {
		if err := migrateDemo(*backend, *migrateTo); err != nil {
			fmt.Fprintln(os.Stderr, "kvmarm-run:", err)
			os.Exit(1)
		}
		return
	}

	sys, err := kvmarm.NewVirt(*backend, *cpus, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvmarm-run:", err)
		os.Exit(1)
	}
	fmt.Printf("guest kernel booted on %d vCPU(s) under %s\n", *cpus, sys.System.Name)

	msgs := 0
	done := false
	_, err = sys.Guest.Spawn("hello", 0, kernel.BodyFunc(func(k *kernel.Kernel, p *kernel.Proc, c *arm.CPU) bool {
		switch msgs {
		case 0:
			k.ConsoleWrite(c, "hello from a process inside the VM\n")
		case 1:
			k.TouchUserPage(c, 0x0030_0000)
			k.ConsoleWrite(c, "touched fresh memory (stage-2 faulted in)\n")
		case 2:
			k.SyscallGetPID(0, c)
			k.ConsoleWrite(c, "made a system call (no hypervisor involved)\n")
		default:
			done = true
			k.PowerOff(c)
			return true
		}
		msgs++
		return false
	}))
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvmarm-run:", err)
		os.Exit(1)
	}
	if !sys.Board.Run(200_000_000, func() bool { return done && sys.Host.LiveCount() == 0 }) {
		fmt.Fprintln(os.Stderr, "kvmarm-run: guest did not finish")
		os.Exit(1)
	}

	fmt.Printf("\n--- virtual console ---\n%s-----------------------\n", string(sys.VM.ConsoleBytes()))
	st := sys.VM.StatsSnapshot()
	ctr := sys.HV.Counters()
	fmt.Printf("world switches: %d in / %d out\n", ctr["world_switch_in"], ctr["world_switch_out"])
	fmt.Printf("stage-2 faults: %d   mmio exits: %d (user: %d)\n", st.Stage2Faults, st.MMIOExits, st.MMIOUserExits)
	fmt.Printf("wfi exits: %d   irq exits: %d   vtimer injections: %d\n", st.WFIExits, st.IRQExits, st.VTimerInjected)
	gk := sys.Guest.Kernel()
	fmt.Printf("guest kernel: %d syscalls, %d switches, %d timer irqs\n",
		gk.Stats.Syscalls, gk.Stats.Switches, gk.Stats.TimerIRQs)
	fmt.Printf("board time: %d cycles\n", sys.Board.Now())
}

// migrateDemo boots a raw writer guest on the source backend, runs it to
// the middle of its workload, live-migrates it (iterative pre-copy) to a
// fresh instance of the destination backend, and lets it finish there.
func migrateDemo(srcName, dstName string) error {
	src, ok := hv.Lookup(srcName)
	if !ok {
		return fmt.Errorf("unknown backend %q", srcName)
	}
	dst, ok := hv.Lookup(dstName)
	if !ok {
		return fmt.Errorf("unknown backend %q", dstName)
	}

	const (
		countAddr = machine.RAMBase + 1<<20
		bufBase   = machine.RAMBase + 2<<20
		iters     = 200
	)
	prog := isa.NewAsm(machine.RAMBase).
		MOV32(isa.R1, bufBase).
		MOV32(isa.R3, countAddr).
		MOVW(isa.R2, 0).
		Label("loop").
		ADDI(isa.R2, isa.R2, 1).
		STR(isa.R2, isa.R3, 0).
		STR(isa.R2, isa.R1, 0).
		ADDI(isa.R1, isa.R1, 4).
		HVC(1).
		CMPI(isa.R2, iters).
		BNE("loop").
		HVC(kernel.PSCISystemOff).
		MustAssemble()
	raw := make([]byte, 0, len(prog)*4)
	for _, w := range prog {
		raw = append(raw, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}

	env, err := src.NewEnv(1)
	if err != nil {
		return err
	}
	vm, err := env.HV.CreateVM(64 << 20)
	if err != nil {
		return err
	}
	v, err := vm.CreateVCPU(0)
	if err != nil {
		return err
	}
	if err := vm.WriteGuestMem(machine.RAMBase, raw); err != nil {
		return err
	}
	if err := v.SetOneReg(hv.RegPC, machine.RAMBase); err != nil {
		return err
	}
	if err := v.SetOneReg(hv.RegCPSR, uint32(arm.ModeSVC)|arm.PSRI|arm.PSRF); err != nil {
		return err
	}
	v.SetGuestSoftware(nil, &isa.Interp{})
	if _, err := v.StartThread(0); err != nil {
		return err
	}

	count := func(m hv.VM) uint32 {
		b, err := m.ReadGuestMem(countAddr, 4)
		if err != nil {
			return 0
		}
		return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	}
	step := 0
	if !env.Board.Run(40_000_000, func() bool { step++; return step%512 == 0 && count(vm) >= iters/4 }) {
		return fmt.Errorf("source guest made no progress")
	}
	fmt.Printf("source (%s) mid-workload: count = %d of %d\n", srcName, count(vm), iters)

	dstEnv, err := dst.NewEnv(1)
	if err != nil {
		return err
	}
	dstVM, err := dstEnv.HV.CreateVM(64 << 20)
	if err != nil {
		return err
	}
	// Short pre-copy rounds: the workload must still be running at the
	// stop phase — this is a live handoff, not an offline copy.
	res, err := hv.Migrate(env, vm, dstEnv, dstVM, hv.MigrateOptions{
		Precopy:     true,
		Rounds:      2,
		RoundBudget: 300,
		ConfigureVCPU: func(id int, v hv.VCPU) {
			v.SetGuestSoftware(nil, &isa.Interp{})
		},
	})
	if err != nil {
		return fmt.Errorf("migration failed: %w", err)
	}
	fmt.Printf("migrated to %s: %d pages pre-copied in %d rounds, %d in the stop-and-copy round (of %d mapped)\n",
		dstName, res.PagesPrecopied, res.Rounds, res.PagesFinal, res.PagesTotal)
	fmt.Printf("downtime: %d cycles (%d parking + %d transfer)\n",
		res.DowntimeCycles, res.PauseWaitCycles, res.TransferCycles)

	if !dstEnv.Board.Run(80_000_000, func() bool { return dstEnv.Host.LiveCount() == 0 }) {
		return fmt.Errorf("migrated guest did not finish")
	}
	fmt.Printf("destination finished: count = %d of %d, vCPU state = %s\n",
		count(dstVM), iters, dstVM.VCPUs()[0].State())
	return nil
}
