// Package machine assembles the simulated board: CPUs, RAM, MMIO bus, GIC,
// generic timers and peripherals, stepped by a deterministic discrete-event
// engine. The default configuration mirrors the paper's test platform — an
// Insignal Arndale with a dual-core Cortex-A15, 100 Mb Ethernet and an
// eSATA SSD (§5.1) — but core count and features are configurable,
// including the "no VGIC/vtimers" hardware variant used throughout the
// evaluation.
package machine

import (
	"container/heap"
	"fmt"

	"kvmarm/internal/arm"
	"kvmarm/internal/bus"
	"kvmarm/internal/dev"
	"kvmarm/internal/gic"
	"kvmarm/internal/mem"
	"kvmarm/internal/timer"
)

// Physical address map of the board.
const (
	RAMBase = 0x8000_0000

	GICDistBase = 0x2C00_1000
	// GICCPUBase is where kernels expect the GIC CPU interface. A VM's
	// Stage-2 tables map the *virtual* CPU interface (GICVBase) at this
	// IPA, so guests run the same GIC driver without modification.
	GICCPUBase = 0x2C00_2000
	// GICVBase is the physical address of the VGIC virtual CPU
	// interface; only the hypervisor maps it.
	GICVBase = 0x2C00_6000
	// GICVSGIBase is the direct virtual-SGI register of the §6
	// "completely avoid IPI traps" hardware extension (present only
	// when Config.HasDirectVIPI).
	GICVSGIBase = 0x2C00_7000
	UARTBase    = 0x1C09_0000
	VirtNetBase = 0x1C0A_0000
	VirtBlkBase = 0x1C0B_0000
	VirtConBase = 0x1C0C_0000

	// Device SPI assignments.
	IRQUart = 37
	IRQNet  = 40
	IRQBlk  = 41
	IRQCon  = 42
)

// Config selects the board build.
type Config struct {
	// CPUs is the core count (the Arndale has 2).
	CPUs int
	// RAMBytes defaults to 256 MiB.
	RAMBytes uint64
	// HasVGIC / HasVirtTimer gate the virtualization hardware variants
	// compared throughout §5 ("ARM" vs "ARM no VGIC/vtimers").
	HasVGIC      bool
	HasVirtTimer bool
	// HasSummaryReg / HasDirectVIPI enable the hypothetical hardware of
	// the paper's §6 recommendations, for the ablation benchmarks.
	HasSummaryReg bool
	HasDirectVIPI bool
}

// DefaultConfig is the Arndale-like dual-core board with full
// virtualization support.
func DefaultConfig() Config {
	return Config{CPUs: 2, HasVGIC: true, HasVirtTimer: true}
}

type event struct {
	at  uint64
	seq uint64
	fn  func()
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// Board is the assembled machine.
type Board struct {
	Cfg    Config
	RAM    *mem.Physical
	Bus    *bus.Bus
	GIC    *gic.GIC
	Timers *timer.Generic
	CPUs   []*arm.CPU
	UART   *dev.UART
	Net    *dev.Virt
	Blk    *dev.Virt
	Con    *dev.Virt
	// VSGI is the direct virtual-IPI device (HasDirectVIPI only).
	VSGI *gic.VSGIDevice

	events  eventQueue
	nextSeq uint64

	// ppiLevel caches each CPU's timer PPI line levels (interrupt IDs
	// 0-31) to avoid redundant GIC work.
	ppiLevel [][32]bool

	// Per-CPU energy accounting: cycles spent busy vs idle (WFI).
	BusyCycles []uint64
	IdleCycles []uint64
	prevClock  []uint64

	// Steps counts Board.Step calls.
	Steps uint64
	// Current is the ID of the CPU being stepped right now (valid inside
	// callbacks reached from Step; the simulation is single-threaded).
	Current int
}

// New builds a board.
func New(cfg Config) (*Board, error) {
	if cfg.CPUs <= 0 || cfg.CPUs > gic.MaxCPUs {
		return nil, fmt.Errorf("machine: %d CPUs; the GIC serves 1 to %d", cfg.CPUs, gic.MaxCPUs)
	}
	if cfg.RAMBytes == 0 {
		cfg.RAMBytes = 256 << 20
	}
	b := &Board{
		Cfg:      cfg,
		RAM:      mem.New(RAMBase, cfg.RAMBytes),
		ppiLevel: make([][32]bool, cfg.CPUs),
	}
	b.Bus = bus.New(b.RAM)
	b.GIC = gic.New(cfg.CPUs, 128)
	b.GIC.HasVGIC = cfg.HasVGIC
	b.GIC.HasSummaryReg = cfg.HasSummaryReg
	b.GIC.HasDirectVIPI = cfg.HasDirectVIPI
	b.Timers = timer.New(cfg.CPUs)

	for i := 0; i < cfg.CPUs; i++ {
		c := arm.NewCPU(i, b.Bus)
		c.Timer = b.Timers
		c.Feat = arm.Features{HasVGIC: cfg.HasVGIC, HasVirtTimer: cfg.HasVirtTimer}
		c.SEVBroadcast = func() {
			for _, o := range b.CPUs {
				o.SendEvent()
			}
		}
		b.CPUs = append(b.CPUs, c)
	}
	b.BusyCycles = make([]uint64, cfg.CPUs)
	b.IdleCycles = make([]uint64, cfg.CPUs)
	b.prevClock = make([]uint64, cfg.CPUs)

	b.GIC.SetIRQLine = func(cpu int, level bool) { b.CPUs[cpu].IRQLine = level }
	if cfg.HasVGIC {
		b.GIC.SetVIRQLine = func(cpu int, level bool) { b.CPUs[cpu].VIRQLine = level }
	}
	b.Timers.Raise = func(cpu, irq int, level bool) {
		// RaisePPI rejects any ID outside the private range before it
		// touches anything, so skipping those here changes nothing.
		if irq < 0 || irq >= len(b.ppiLevel[cpu]) || b.ppiLevel[cpu][irq] == level {
			return
		}
		b.ppiLevel[cpu][irq] = level
		_ = b.GIC.RaisePPI(cpu, irq, level)
	}

	// Peripherals.
	b.UART = &dev.UART{}
	if err := b.Bus.Map(UARTBase, dev.UARTSize, b.UART); err != nil {
		return nil, err
	}
	acc := func() int { return b.Bus.Accessor }
	dist := &gic.DistDevice{G: b.GIC, Accessor: acc}
	if err := b.Bus.Map(GICDistBase, gic.DistSize, dist); err != nil {
		return nil, err
	}
	if err := b.Bus.Map(GICCPUBase, gic.CPUIfaceSize, &gic.CPUIfaceDevice{G: b.GIC, Accessor: acc}); err != nil {
		return nil, err
	}
	if cfg.HasVGIC {
		if err := b.Bus.Map(GICVBase, gic.CPUIfaceSize, &gic.VCPUIfaceDevice{G: b.GIC, Accessor: acc}); err != nil {
			return nil, err
		}
	}
	if cfg.HasDirectVIPI {
		b.VSGI = &gic.VSGIDevice{Accessor: acc}
		if err := b.Bus.Map(GICVSGIBase, gic.VSGISize, b.VSGI); err != nil {
			return nil, err
		}
	}
	mkVirt := func(class dev.VirtClass, base uint64, irq int, num, den, lat uint64) (*dev.Virt, error) {
		v := &dev.Virt{
			Class: class, IRQ: irq,
			CyclesPerByteNum: num, CyclesPerByteDen: den, FixedLatency: lat,
			Sched:    b.Schedule,
			Now:      b.Now,
			RaiseIRQ: func(irq int, level bool) { _ = b.GIC.RaiseSPI(irq, level) },
			// Frame DMA on the native board goes straight to physical RAM.
			ReadMem: func(addr uint64, n int) ([]byte, error) {
				buf := make([]byte, n)
				err := b.RAM.ReadBytes(addr, buf)
				return buf, err
			},
			WriteMem: func(addr uint64, data []byte) error {
				return b.RAM.WriteBytes(addr, data)
			},
		}
		return v, b.Bus.Map(base, dev.VirtSize, v)
	}
	var err error
	// 100 Mb/s NIC at 1.7 GHz: 12.5 MB/s / 1.7e9 cyc/s ≈ 0.0074 B/cyc
	// = 37/5000 bytes per cycle, so 5000/37 cycles per byte.
	if b.Net, err = mkVirt(dev.VirtNet, VirtNetBase, IRQNet, 5000, 37, 20_000); err != nil {
		return nil, err
	}
	// SATA SSD ~250 MB/s ≈ 0.147 B/cyc = 147/1000 (1000/147 cycles per
	// byte), ~85 µs access ≈ 145k cycles.
	if b.Blk, err = mkVirt(dev.VirtBlock, VirtBlkBase, IRQBlk, 1000, 147, 145_000); err != nil {
		return nil, err
	}
	if b.Con, err = mkVirt(dev.VirtConsole, VirtConBase, IRQCon, 1, 1, 5_000); err != nil {
		return nil, err
	}
	return b, nil
}

// Now returns the board time: the minimum clock over live CPUs.
func (b *Board) Now() uint64 {
	var minClock uint64
	first := true
	for _, c := range b.CPUs {
		if c.Halted {
			continue
		}
		if first || c.Clock < minClock {
			minClock = c.Clock
			first = false
		}
	}
	return minClock
}

// Schedule runs fn at absolute cycle time at (device completions, software
// timers). Events scheduled in the past run on the next step.
func (b *Board) Schedule(at uint64, fn func()) {
	b.nextSeq++
	heap.Push(&b.events, event{at: at, seq: b.nextSeq, fn: fn})
}

// ScheduleAfter runs fn delay cycles from now.
func (b *Board) ScheduleAfter(delay uint64, fn func()) {
	b.Schedule(b.Now()+delay, fn)
}

func (b *Board) runEventsUpTo(t uint64) {
	for len(b.events) > 0 && b.events[0].at <= t {
		e := heap.Pop(&b.events).(event)
		e.fn()
	}
}

// minClockCPU returns the live CPU with the lowest cycle clock.
func (b *Board) minClockCPU() *arm.CPU {
	var best *arm.CPU
	for _, c := range b.CPUs {
		if c.Halted {
			continue
		}
		if best == nil || c.Clock < best.Clock {
			best = c
		}
	}
	return best
}

// nextWake computes when a sleeping CPU could possibly wake: the earliest
// pending event, its own timer deadline, or another CPU catching up (which
// could send it an IPI).
func (b *Board) nextWake(c *arm.CPU) (uint64, bool) {
	var t uint64
	have := false
	consider := func(v uint64) {
		if v == 0 {
			return
		}
		if !have || v < t {
			t = v
			have = true
		}
	}
	if len(b.events) > 0 {
		consider(b.events[0].at + 1)
	}
	if d := b.Timers.NextDeadline(c.ID, c.Clock); d != 0 {
		consider(d + 1)
	}
	for _, o := range b.CPUs {
		if o == c || o.Halted {
			continue
		}
		if !o.WFIWait {
			consider(o.Clock + 1)
		} else if d := b.Timers.NextDeadline(o.ID, o.Clock); d != 0 {
			// A sleeping peer with an armed timer will wake and may
			// send an interrupt this way.
			consider(d + 1)
		}
	}
	if have && t <= c.Clock {
		// The wake source is already due; guarantee forward progress.
		t = c.Clock + 1
	}
	return t, have
}

// Step advances the board by one unit of work on the laggard CPU. Returns
// false when the machine has quiesced: every CPU halted, or everything
// asleep with nothing scheduled to wake it.
func (b *Board) Step() bool {
	c := b.minClockCPU()
	if c == nil {
		return false
	}
	b.Steps++
	b.Current = c.ID
	b.runEventsUpTo(c.Clock)
	b.Timers.Tick(c.ID, c.Clock)
	// Wake-check every core, not just the one being stepped: a pending
	// interrupt line on a sleeping peer must prevent quiescence.
	for _, o := range b.CPUs {
		o.WakeIfInterrupted()
	}

	if c.WFIWait {
		wake, ok := b.nextWake(c)
		if !ok {
			// Nothing can ever wake this CPU; if every other CPU is
			// also stuck, the machine has quiesced.
			allStuck := true
			for _, o := range b.CPUs {
				if !o.Halted && !o.WFIWait {
					allStuck = false
				}
			}
			if allStuck {
				return false
			}
			wake = c.Clock + 1000
		}
		if wake > c.Clock {
			b.IdleCycles[c.ID] += wake - c.Clock
			c.Clock = wake
		}
		b.prevClock[c.ID] = c.Clock
		return true
	}

	before := c.Clock
	c.Step()
	b.BusyCycles[c.ID] += c.Clock - before
	b.prevClock[c.ID] = c.Clock
	return true
}

// Run steps until pred returns true or maxSteps is exhausted; reports
// whether pred was satisfied.
func (b *Board) Run(maxSteps uint64, pred func() bool) bool {
	for i := uint64(0); i < maxSteps; i++ {
		if pred != nil && pred() {
			return true
		}
		if !b.Step() {
			return pred != nil && pred()
		}
	}
	return pred != nil && pred()
}

// RunUntilHalt steps until every CPU halts or the step budget is spent.
func (b *Board) RunUntilHalt(maxSteps uint64) bool {
	return b.Run(maxSteps, func() bool {
		for _, c := range b.CPUs {
			if !c.Halted {
				return false
			}
		}
		return true
	})
}

// LoadProgram copies an assembled program into RAM at pa.
func (b *Board) LoadProgram(pa uint64, words []uint32) error {
	for i, w := range words {
		if err := b.RAM.Write32(pa+uint64(i)*4, w); err != nil {
			return err
		}
	}
	return nil
}

// Utilization returns the busy fraction of cpu's elapsed cycles.
func (b *Board) Utilization(cpu int) float64 {
	busy, idle := b.BusyCycles[cpu], b.IdleCycles[cpu]
	if busy+idle == 0 {
		return 0
	}
	return float64(busy) / float64(busy+idle)
}

// LeastBusyCPU returns the CPU with the fewest busy cycles so far — a
// coarse placement hint for packing many VMs onto one board. Fleet
// placement (internal/fleet) no longer uses it: busy-cycle history says
// nothing about the current run-queue depth, so overcommitted fleets
// balance on kernel.RunqueueLen instead and this remains for callers
// wanting a history-weighted hint.
func (b *Board) LeastBusyCPU() int {
	best := 0
	for i := 1; i < len(b.BusyCycles); i++ {
		if b.BusyCycles[i] < b.BusyCycles[best] {
			best = i
		}
	}
	return best
}
