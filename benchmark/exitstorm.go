package main

import (
	"encoding/binary"
	"fmt"
	"math"

	"kvmarm/internal/arm"
	"kvmarm/internal/bench"
	"kvmarm/internal/hv"
	"kvmarm/internal/isa"
	"kvmarm/internal/kernel"
	"kvmarm/internal/machine"
)

// exit-storm: a handful of guest instructions per exit, on all five
// backends. Three raw loops (hypercall, in-kernel MMIO, user-space MMIO)
// and two phases on a 2-vCPU guest kernel (IPI ping-pong, virtual-timer
// fire -> ACK -> EOI), in seeded order. The world switch, the interrupt
// controller, the timers and MMIO dispatch dominate; the instruction
// interpreter idles. It also carries the accuracy check against the
// paper's Table 3.
//
// The seed decides the order of the phases and nothing else: every exit of
// one kind costs the modelled design the same, so the per-op latencies of
// this workload are constants of the model (on arm the median op is an
// in-kernel MMIO access, the tail a timer round).

var stormPhases = []string{"hypercall", "mmio-kernel", "mmio-user", "ipi", "vtimer"}

// table3Row names the Table 3 row a raw phase reproduces.
var table3Row = map[string]string{"hypercall": "Hypercall", "mmio-kernel": "I/O Kernel", "mmio-user": "I/O User"}

// table3Column names a backend's Table 3 column.
var table3Column = map[string]string{
	"arm": "ARM", "arm-novgic": "ARM no VGIC/vtimers", "arm-vhe": "ARM VHE",
	"x86-laptop": "x86 laptop", "x86-server": "x86 server",
}

// paperTable3 holds the 24 cycle counts the paper publishes (its Table 3
// has no VHE column), in bench.Table3 row order.
var paperTable3 = map[string][4]float64{ // ARM, no VGIC/vtimers, x86 laptop, x86 server
	"Hypercall":  {5326, 2270, 1336, 1638},
	"Trap":       {27, 27, 632, 821},
	"I/O Kernel": {5990, 2850, 3190, 3291},
	"I/O User":   {10119, 6704, 10985, 12218},
	"IPI":        {14366, 32951, 17138, 21177},
	"EOI+ACK":    {427, 13726, 2043, 2305},
}

var paperColumns = [4]string{"ARM", "ARM no VGIC/vtimers", "x86 laptop", "x86 server"}

// paperErrPct is the mean absolute percentage error of the reproduced
// Table 3 against the 24 published cells.
func paperErrPct(rows []bench.MicroRow) (float64, error) {
	var sum float64
	n := 0
	for _, r := range rows {
		want, ok := paperTable3[r.Name]
		if !ok {
			return 0, fmt.Errorf("Table 3 row %q has no published values", r.Name)
		}
		for i, col := range paperColumns {
			sum += math.Abs(float64(r.Values[col])-want[i]) / want[i]
			n++
		}
	}
	if n != 24 {
		return 0, fmt.Errorf("Table 3 has %d published cells to compare, want 24", n)
	}
	return 100 * sum / float64(n), nil
}

// echoDev is the in-kernel emulated device the mmio-kernel phase reads.
type echoDev struct{}

func (echoDev) Name() string                       { return "echo" }
func (echoDev) Read(hv.VCPU, uint64, int) uint64   { return 0x5A }
func (echoDev) Write(hv.VCPU, uint64, int, uint64) {}

const echoBase = 0x1D00_0000 // an otherwise unused IPA

// vtimerTicks is how long (in 24 MHz counter ticks, 64 cycles each) the
// vtimer phase sleeps per round: long enough that the timer expires while
// the vCPU is idle. Every backend masks a timer it finds expired at guest
// entry without injecting it, so an expiry that falls between an exit and
// its re-entry is lost and the sleeper never wakes. On the x86 backends
// programming the timer costs two exits of its own, and a sleep of a few
// thousand cycles expires inside them; a polling driver (which takes
// slice-timer exits) loses timers the same way. See README.md, "Day one".
const vtimerTicks = 1024

// stormLoop is n iterations of op, then power-off. Four instructions of
// loop overhead per iteration, which the empty-loop baseline measures.
func stormLoop(n int, op func(a *isa.Asm)) []byte {
	a := isa.NewAsm(guestCode)
	a.MOV32(isa.R4, uint32(n)).Label("loop")
	op(a)
	a.SUBI(isa.R4, isa.R4, 1).CMPI(isa.R4, 0).BNE("loop").HVC(powerOff)
	return progBytes(a.MustAssemble())
}

var stormOps = map[string]func(a *isa.Asm){
	"baseline":    func(a *isa.Asm) { a.NOP() },
	"hypercall":   func(a *isa.Asm) { a.HVC(1) },
	"mmio-kernel": func(a *isa.Asm) { a.MOV32(isa.R1, echoBase).LDR(isa.R0, isa.R1, 0) },
	"mmio-user":   func(a *isa.Asm) { a.MOV32(isa.R1, machine.UARTBase).LDR(isa.R0, isa.R1, 4) },
}

// stormBackend is one backend's pair of environments: a 1-CPU board for
// the raw loops (as Table 3 measures them) and a 2-CPU board with a booted
// guest kernel for the IPI and timer phases.
type stormBackend struct {
	rec  *recorder
	name string
	be   *hv.Backend
	raw  *hv.Env
	smp  *hv.Env
	os   hv.GuestOS

	cycles  uint64
	insns   uint64 // guest instructions retired in the timed phases
	ops     uint64
	samples []uint64 // per-op simulated latency
}

// rawLoop runs one raw loop of n ops to power-off and returns the cycles
// it took. Timed phases go on the timed clock, baselines on the caller's.
func (s *stormBackend) rawLoop(phase string, n int, timed bool) (uint64, error) {
	if s.raw == nil {
		env, err := s.rec.newEnv(s.be, 1)
		if err != nil {
			return 0, err
		}
		s.raw = env
	}
	env := s.raw
	boot := func() error {
		_, _, err := bootRaw(env, rawGuest{
			memBytes: 16 << 20, cpsr: cpsrMasked,
			images:  []image{{guestCode, stormLoop(n, stormOps[phase])}},
			devices: func(vm hv.VM) { vm.AddKernelMMIO(echoBase, 0x1000, echoDev{}) },
		})
		return err
	}
	cpu := env.Board.CPUs[0]
	var cycles uint64
	run := func() error {
		c0 := cpu.Clock
		if !env.Board.Run(uint64(n)*64+1_000_000, func() bool { return env.Host.LiveCount() == 0 }) {
			return fmt.Errorf("exit-storm %s on %s did not finish", phase, s.name)
		}
		cycles = cpu.Clock - c0
		return nil
	}
	if !timed {
		if err := boot(); err != nil {
			return 0, err
		}
		if err := run(); err != nil {
			return 0, err
		}
		return cycles, nil
	}
	if err := s.rec.setup("load_image", boot); err != nil {
		return 0, err
	}
	insns0 := cpu.Insns
	err := s.rec.timed(s.name, func() error { return s.rec.span("board_run", run) })
	s.insns += cpu.Insns - insns0
	return cycles, err
}

// guestOS boots the 2-vCPU guest kernel on first use (setup clock).
func (s *stormBackend) guestOS() error {
	if s.os != nil {
		return nil
	}
	env, err := s.rec.newEnv(s.be, 2)
	if err != nil {
		return err
	}
	s.smp = env
	return s.rec.setup("load_image", func() error {
		_, s.os, err = hv.BootGuest(env, 2, 64<<20, s.be.BootBudget, s.rec.tracer)
		return err
	})
}

// osPhase runs n rounds of a guest-kernel phase: driver is the process on
// vCPU 0 whose step function starts a round (begin) and polls for its end;
// the optional spinner keeps vCPU 1 busy so that interrupts reach a
// running core. Each round's latency is board time from begin to the
// driver seeing the round complete.
func (s *stormBackend) osPhase(phase string, n int, spinner bool, begin func(k *kernel.Kernel, c *arm.CPU), complete func() bool) error {
	env := s.smp
	rounds, started := 0, false
	var t0 uint64
	lat := make([]uint64, 0, n)
	insns0 := guestInsns(env)
	// The bookkeeping stays outside the timed region: growing the sample
	// slice there would charge the simulator an allocation whose size
	// depends on the order of the phases.
	defer func() {
		s.insns += guestInsns(env) - insns0
		s.ops += uint64(n)
		s.samples = append(s.samples, lat...)
	}()
	return s.rec.timed(s.name, func() error {
		start := env.Board.Now()
		if spinner {
			if _, err := s.os.Spawn(phase+"-spinner", 1, kernel.BodyFunc(func(_ *kernel.Kernel, _ *kernel.Proc, c *arm.CPU) bool {
				c.Charge(80)
				return rounds >= n
			})); err != nil {
				return err
			}
		}
		_, err := s.os.Spawn(phase+"-driver", 0, kernel.BodyFunc(func(k *kernel.Kernel, _ *kernel.Proc, c *arm.CPU) bool {
			switch {
			case rounds >= n:
				return true
			case !started:
				started, t0 = true, env.Board.Now()
				begin(k, c)
			case complete():
				lat = append(lat, env.Board.Now()-t0)
				rounds++
				started = false
			default:
				c.Charge(120) // poll
			}
			return false
		}))
		if err != nil {
			return err
		}
		err = s.rec.span("board_run", func() error {
			if !env.Board.Run(uint64(n)*100_000, func() bool { return rounds >= n }) {
				return fmt.Errorf("exit-storm %s on %s stalled at round %d of %d", phase, s.name, rounds, n)
			}
			return nil
		})
		s.cycles += env.Board.Now() - start
		return err
	})
}

func (s *stormBackend) run(phase string, sz sizes) error {
	switch phase {
	case "ipi", "vtimer":
		if err := s.guestOS(); err != nil {
			return err
		}
	}
	switch phase {
	case "ipi":
		// The receiver answers with an IPI back; the sender's handler
		// completes the round.
		done := false
		k := s.os.Kernel()
		k.OnIPICall = func(cpu int) {
			if cpu == 1 {
				k.SendIPICall(k.CPU(1), 1<<0)
			} else {
				done = true
			}
		}
		return s.osPhase(phase, sz.ipis, true,
			func(k *kernel.Kernel, c *arm.CPU) { done = false; k.SendIPICall(c, 1<<1) },
			func() bool { return done })
	case "vtimer":
		// The driver sleeps on the guest's virtual timer: the vCPU idles
		// (a WFI exit), the timer fires, the hypervisor injects it, the
		// guest kernel ACKs, wakes the sleeper and EOIs. A round ends
		// when the driver runs again.
		return s.osPhase(phase, sz.vtimers, false,
			func(k *kernel.Kernel, c *arm.CPU) { k.SyscallNanosleep(0, c, vtimerTicks) },
			func() bool { return true })
	}
	n := map[string]int{"hypercall": sz.hypercalls, "mmio-kernel": sz.mmioKernel, "mmio-user": sz.mmioUser}[phase]
	full, err := s.rawLoop(phase, n, true)
	if err != nil {
		return err
	}
	s.cycles += full
	s.ops += uint64(n)
	// The loop's cost over the empty-loop baseline, per op, is what
	// checkTable3 holds against the Table 3 cell. Every op of a raw loop
	// costs the same, so each is attributed the phase mean as its latency.
	return s.rec.verify(func() error {
		base, err := s.rawLoop("baseline", n, false)
		if err != nil {
			return err
		}
		perOp := (full - base) / uint64(n)
		for i := 0; i < n; i++ {
			s.samples = append(s.samples, perOp)
		}
		s.rec.perOp[s.name+"/"+phase] = perOp
		return nil
	})
}

// checkTable3 is exit-storm's accuracy oracle. It reproduces Table 3 once
// (about two seconds, so per run and not per repeat) and returns the mean
// absolute error against the paper with one failure per raw phase whose
// measured per-op cost on one of the given backends is not the matching
// cell.
func checkTable3(perOp map[string]uint64, backends []string) (errPct float64, failures []string, err error) {
	rows, err := bench.Table3()
	if err != nil {
		return 0, nil, err
	}
	if errPct, err = paperErrPct(rows); err != nil {
		return 0, nil, err
	}
	if errPct > paperErrCeiling {
		failures = append(failures, fmt.Sprintf("exit-storm: Table 3 is %.2f%% off the paper, ceiling %.1f%%", errPct, paperErrCeiling))
	}
	for _, r := range rows {
		for _, name := range backends {
			for phase, row := range table3Row {
				if row != r.Name {
					continue
				}
				got, ok := perOp[name+"/"+phase]
				if want := r.Values[table3Column[name]]; !ok || got != want {
					failures = append(failures, fmt.Sprintf("exit-storm %s on %s costs %d cycles per op, Table 3 says %d", phase, name, got, want))
				}
			}
		}
	}
	return errPct, failures, nil
}

// stormOrder is the order the phases run in: all the seed decides.
func stormOrder(seed uint64) []int { return newRNG(seed, "storm/order").perm(len(stormPhases)) }

// exitStorm runs the workload on all five backends.
func exitStorm(rec *recorder, seed uint64, sz sizes) error {
	order := stormOrder(seed)
	for _, name := range sz.backends {
		be, err := lookup(name)
		if err != nil {
			return err
		}
		s := &stormBackend{rec: rec, name: name, be: be}
		for _, p := range order {
			if err := s.run(stormPhases[p], sz); err != nil {
				return err
			}
		}
		row := rec.row(name)
		row.SimCycles, row.Ops = s.cycles, s.ops
		row.Lat = percentiles(s.samples)
		rec.insns += s.insns
		rec.addCounts(s.raw)
		rec.addCounts(s.smp)
		rec.outputs = append(rec.outputs, binary.LittleEndian.AppendUint64(nil, s.cycles))
		for _, phase := range stormPhases {
			rec.outputs = append(rec.outputs, binary.LittleEndian.AppendUint64(nil, rec.perOp[name+"/"+phase]))
		}
	}
	return nil
}

// paperErrCeiling fails the run when the reproduced Table 3 drifts from
// the paper: the model stood at 4.3% when the benchmark was defined.
const paperErrCeiling = 6.0
