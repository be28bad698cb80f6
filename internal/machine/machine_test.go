package machine

import (
	"testing"

	"kvmarm/internal/arm"
	"kvmarm/internal/gic"
	"kvmarm/internal/isa"
)

func board(t *testing.T, cpus int) *Board {
	t.Helper()
	cfg := DefaultConfig()
	cfg.CPUs = cpus
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBoardBoot(t *testing.T) {
	b := board(t, 2)
	if len(b.CPUs) != 2 {
		t.Fatal("cpu count")
	}
	for _, c := range b.CPUs {
		if c.Mode() != arm.ModeSVC || !c.Secure {
			t.Fatal("CPUs must power up in secure SVC")
		}
	}
}

func TestRunProgramToHalt(t *testing.T) {
	b := board(t, 1)
	prog := isa.NewAsm(RAMBase).
		MOVW(isa.R0, 123).
		HALT().
		MustAssemble()
	if err := b.LoadProgram(RAMBase, prog); err != nil {
		t.Fatal(err)
	}
	c := b.CPUs[0]
	c.Secure = false
	c.Regs.SetPC(RAMBase)
	c.Runner = &isa.Interp{}
	if !b.RunUntilHalt(1000) {
		t.Fatal("did not halt")
	}
	if c.Regs.R(0) != 123 {
		t.Fatalf("r0 = %d", c.Regs.R(0))
	}
}

func TestUARTOutput(t *testing.T) {
	b := board(t, 1)
	prog := isa.NewAsm(RAMBase).
		MOV32(isa.R1, UARTBase).
		MOVW(isa.R2, 'h').
		STR(isa.R2, isa.R1, 0).
		MOVW(isa.R2, 'i').
		STR(isa.R2, isa.R1, 0).
		HALT().
		MustAssemble()
	_ = b.LoadProgram(RAMBase, prog)
	c := b.CPUs[0]
	c.Secure = false
	c.Regs.SetPC(RAMBase)
	c.Runner = &isa.Interp{}
	if !b.RunUntilHalt(1000) {
		t.Fatal("no halt")
	}
	if got := b.UART.String(); got != "hi" {
		t.Fatalf("uart = %q", got)
	}
}

func TestEventQueueOrdering(t *testing.T) {
	b := board(t, 1)
	b.CPUs[0].Halted = false
	var order []int
	b.Schedule(100, func() { order = append(order, 1) })
	b.Schedule(50, func() { order = append(order, 0) })
	b.Schedule(100, func() { order = append(order, 2) }) // same time: FIFO
	// Idle-step the board past the events.
	for i := 0; i < 10 && len(order) < 3; i++ {
		b.CPUs[0].Charge(60)
		b.Step()
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("order = %v", order)
	}
}

func TestTimerInterruptWakesWFI(t *testing.T) {
	b := board(t, 1)
	c := b.CPUs[0]
	c.Secure = false
	// Enable the physical timer PPI and arm a 100-tick timer.
	_ = b.GIC.EnableIRQ(0, gic.IRQPhysTimer)
	prog := isa.NewAsm(RAMBase).
		MOVW(isa.R1, 100).
		MCR(isa.R1, uint16(arm.SysCNTPTVAL)).
		MOVW(isa.R1, 1). // CTLEnable
		MCR(isa.R1, uint16(arm.SysCNTPCTL)).
		WFI().
		MOVW(isa.R0, 77).
		HALT().
		MustAssemble()
	_ = b.LoadProgram(RAMBase, prog)
	c.Regs.SetPC(RAMBase)
	c.SetCPSR(uint32(arm.ModeSVC)) // IRQs unmasked
	c.Runner = &isa.Interp{}
	fired := false
	c.PL1Handler = func(cpu *arm.CPU, e *arm.Exception) {
		if e.Kind == arm.ExcIRQ {
			fired = true
			id, _ := b.GIC.Ack(0)
			// Disable the timer and complete.
			cpu.WriteSys(arm.SysCNTPCTL, 0, 0)
			b.Timers.Tick(0, cpu.Clock)
			b.GIC.EOI(0, id)
			cpu.ERET()
		}
	}
	if !b.RunUntilHalt(100_000) {
		t.Fatalf("no halt (pc=%#x wfi=%v)", c.Regs.PC(), c.WFIWait)
	}
	if !fired {
		t.Fatal("timer IRQ not delivered")
	}
	if c.Regs.R(0) != 77 {
		t.Fatalf("r0 = %d", c.Regs.R(0))
	}
	if b.IdleCycles[0] == 0 {
		t.Fatal("WFI time must be accounted as idle")
	}
}

func TestCrossCPUIPI(t *testing.T) {
	b := board(t, 2)
	c0, c1 := b.CPUs[0], b.CPUs[1]
	c0.Secure, c1.Secure = false, false
	_ = b.GIC.EnableIRQ(1, 5)

	// CPU1 sleeps; CPU0 sends SGI 5 to CPU1 via the distributor.
	prog1 := isa.NewAsm(RAMBase+0x1000).WFI().MOVW(isa.R0, 1).HALT().MustAssemble()
	_ = b.LoadProgram(RAMBase+0x1000, prog1)
	c1.Regs.SetPC(RAMBase + 0x1000)
	c1.SetCPSR(uint32(arm.ModeSVC))
	c1.Runner = &isa.Interp{}
	got := false
	c1.PL1Handler = func(cpu *arm.CPU, e *arm.Exception) {
		if e.Kind == arm.ExcIRQ {
			id, src := b.GIC.Ack(1)
			if id == 5 && src == 0 {
				got = true
			}
			b.GIC.EOI(1, id)
			cpu.ERET()
		}
	}

	sgirVal := uint32(0b10)<<gic.SGIRTargetShift | 5
	prog0 := isa.NewAsm(RAMBase).
		MOV32(isa.R1, GICDistBase+gic.GICDSgir).
		MOV32(isa.R2, sgirVal).
		STR(isa.R2, isa.R1, 0).
		HALT().
		MustAssemble()
	_ = b.LoadProgram(RAMBase, prog0)
	c0.Regs.SetPC(RAMBase)
	c0.Runner = &isa.Interp{}

	if !b.RunUntilHalt(100_000) {
		t.Fatalf("no halt: c0 halted=%v c1 halted=%v", c0.Halted, c1.Halted)
	}
	if !got {
		t.Fatal("IPI not received by CPU 1")
	}
}

func TestVirtDeviceCompletionInterrupt(t *testing.T) {
	b := board(t, 1)
	c := b.CPUs[0]
	c.Secure = false
	_ = b.GIC.EnableIRQ(0, IRQBlk)
	_ = b.GIC.SetTarget(IRQBlk, 1)

	// Kick a 4 KiB block read, then WFI until completion.
	prog := isa.NewAsm(RAMBase).
		MOV32(isa.R1, VirtBlkBase).
		MOV32(isa.R2, 4096).
		STR(isa.R2, isa.R1, 0). // QUEUE_NOTIFY
		WFI().
		MOVW(isa.R0, 1).
		HALT().
		MustAssemble()
	_ = b.LoadProgram(RAMBase, prog)
	c.Regs.SetPC(RAMBase)
	c.SetCPSR(uint32(arm.ModeSVC))
	c.Runner = &isa.Interp{}
	completions := 0
	c.PL1Handler = func(cpu *arm.CPU, e *arm.Exception) {
		if e.Kind != arm.ExcIRQ {
			return
		}
		id, _ := b.GIC.Ack(0)
		if id == IRQBlk {
			// Read ISR (clears the line) and count completions.
			if v, err := cpu.TryRead(VirtBlkBase+4, 4); err == nil && v&1 != 0 {
				completions += len(b.Blk.Drain())
			}
		}
		b.GIC.EOI(0, id)
		cpu.ERET()
	}
	if !b.RunUntilHalt(10_000_000) {
		t.Fatalf("no halt (wfi=%v)", c.WFIWait)
	}
	if completions != 1 {
		t.Fatalf("completions = %d", completions)
	}
	// The SSD model must have imposed a nonzero latency.
	if c.Clock < b.Blk.FixedLatency {
		t.Fatalf("completion arrived before the device latency: clock=%d", c.Clock)
	}
}

func TestQuiescedBoardStops(t *testing.T) {
	b := board(t, 1)
	c := b.CPUs[0]
	c.WFIWait = true // asleep with nothing armed
	if b.Step() {
		// One step may advance bookkeeping; but it must quiesce quickly.
		for i := 0; i < 10; i++ {
			if !b.Step() {
				return
			}
		}
		t.Fatal("board did not quiesce")
	}
}

// TestBoardCPULimit: the GIC routes by one-byte CPU masks, so a board has
// 1 to gic.MaxCPUs cores.
func TestBoardCPULimit(t *testing.T) {
	for _, cpus := range []int{0, gic.MaxCPUs + 1} {
		if _, err := New(Config{CPUs: cpus, RAMBytes: 1 << 20}); err == nil {
			t.Errorf("New with %d CPUs succeeded", cpus)
		}
	}
	if _, err := New(Config{CPUs: gic.MaxCPUs, RAMBytes: 1 << 20}); err != nil {
		t.Fatal(err)
	}
}
