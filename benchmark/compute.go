package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"

	"kvmarm/internal/hv"
	"kvmarm/internal/isa"
	"kvmarm/internal/machine"
	"kvmarm/internal/mmu"
)

// guest-compute: one 1-vCPU raw guest, rounds of three phases, almost no
// exits.
//
//	alu    - one hot ten-instruction block;
//	mem    - load/add/store through a seeded sequence of accesses to 2048
//	         data pages, four times what the 512-entry TLB holds; pages are
//	         drawn with replacement, so the seed decides how often a page
//	         comes round again while its translation is still cached;
//	blocks - 6000 distinct eight-instruction blocks chained in seeded
//	         order, more than the 4096-block cache keeps.
//
// The phases alternate in rounds of about 290 k instructions (4:1:1), so
// every op — a million instructions — is the same mix and its simulated
// cost is a latency worth a percentile. isa and mmu do nearly all the work.
// The world switch must not show here.

const (
	cmpTable  = machine.RAMBase + 2<<20  // access table, one word per slot
	cmpData   = machine.RAMBase + 4<<20  // computePages data pages
	cmpBlocks = machine.RAMBase + 16<<20 // the blocks phase's code
	cmpDone   = guestVars                // set to 1 just before power-off
	cmpMem    = 64 << 20

	aluBody   = 10 // instructions per alu iteration
	memBody   = 8  // instructions per mem access
	memPass   = 4  // loop overhead per pass over the table
	blockBody = 8  // instructions per block
)

var computeBackends = []string{"arm", "arm-vhe", "x86-laptop"}

// computeInputs is everything the seed decides for guest-compute.
type computeInputs struct {
	aluA, aluB uint32 // alu operands
	offsets    []int  // per table slot: page*4096 + word offset in the page
	order      []int  // the order blocks chain in
	data       []byte // initial content of the data pages
}

func genComputeInputs(seed uint64) computeInputs {
	in := computeInputs{
		aluA:    uint32(newRNG(seed, "compute/alu").next()),
		aluB:    uint32(newRNG(seed, "compute/alu-b").next()) | 1,
		offsets: make([]int, computeSlots),
		order:   newRNG(seed, "compute/blocks").perm(computeBlocks),
		data:    newRNG(seed, "compute/data").bytes(computePages * mmu.PageSize),
	}
	r := newRNG(seed, "compute/pages")
	for i := range in.offsets {
		in.offsets[i] = r.intn(computePages)*mmu.PageSize + 4*r.intn(mmu.PageSize/4)
	}
	return in
}

func (in computeInputs) bytes() []byte {
	var ab [8]byte
	binary.LittleEndian.PutUint32(ab[:], in.aluA)
	binary.LittleEndian.PutUint32(ab[4:], in.aluB)
	return []byte(digest(ab[:], words32(in.offsets), words32(in.order), in.data))
}

// computeImages assembles the guest for the given number of rounds and
// returns its images with the exact number of instructions it retires.
func computeImages(in computeInputs, rounds int) ([]image, uint64) {
	rounds = max(rounds, 1)
	a := isa.NewAsm(guestCode)
	// straight counts the instructions of a straight-line stretch.
	straight := func(emit func()) uint64 {
		at := a.Here()
		emit()
		return uint64(a.Here()-at) / 4
	}
	blockAt := func(i int) uint32 { return cmpBlocks + uint32(i)*blockBody*4 }

	insns := straight(func() {
		a.MOV32(isa.R12, uint32(rounds)).MOV32(isa.R0, in.aluA).MOV32(isa.R1, in.aluB).
			MOV32(isa.R10, cmpTable).MOV32(isa.R11, cmpData).MOV32(isa.R9, computeSlots*4).
			MOV32(isa.R7, blockAt(in.order[0]))
	})
	a.Label("round")
	round := straight(func() { a.MOV32(isa.R4, computeAluIters) })
	a.Label("alu").
		ADD(isa.R0, isa.R0, isa.R1).
		XOR(isa.R2, isa.R0, isa.R1).
		ORR(isa.R3, isa.R2, isa.R0).
		AND(isa.R2, isa.R3, isa.R1).
		LSL(isa.R3, isa.R2, isa.R1).
		SUB(isa.R2, isa.R3, isa.R0).
		ADDI(isa.R5, isa.R2, 7).
		SUBI(isa.R4, isa.R4, 1).
		CMPI(isa.R4, 0).
		BNE("alu")
	round += computeAluIters * aluBody

	round += straight(func() { a.MOVW(isa.R6, computeMemPasses) })
	a.Label("pass").
		MOVW(isa.R2, 0).
		Label("mem").
		LDRR(isa.R1, isa.R10, isa.R2). // offset of this slot's word
		ADD(isa.R3, isa.R11, isa.R1).
		LDR(isa.R0, isa.R3, 0).
		ADD(isa.R0, isa.R0, isa.R6).
		STR(isa.R0, isa.R3, 0).
		ADDI(isa.R2, isa.R2, 4).
		CMP(isa.R2, isa.R9).
		BNE("mem").
		SUBI(isa.R6, isa.R6, 1).
		CMPI(isa.R6, 0).
		BNE("pass")
	round += computeMemPasses * (computeSlots*memBody + memPass)

	// r8 is where the last block of the chain returns to: the word after
	// the MOV32 (two words, the address has a high half) and the BX.
	chainEnd := a.Here() + 3*4
	round += straight(func() { a.MOV32(isa.R8, chainEnd).BX(isa.R7) })
	if a.Here() != chainEnd {
		panic("benchmark: guest-compute chain-end address miscounted")
	}
	round += computeBlocks * blockBody
	round += straight(func() { a.SUBI(isa.R12, isa.R12, 1).CMPI(isa.R12, 0).BNE("round") })
	insns += uint64(rounds) * round
	insns += straight(func() {
		a.MOV32(isa.R12, cmpDone).MOVW(isa.R9, 1).STR(isa.R9, isa.R12, 0).HVC(powerOff)
	})
	code := a.MustAssemble()

	// The blocks: block i lives at blockAt(i); the chain visits them in
	// the seeded order and the last one returns through r8.
	next := make([]int, computeBlocks)
	for j, b := range in.order {
		next[b] = -1
		if j+1 < len(in.order) {
			next[b] = in.order[j+1]
		}
	}
	b := isa.NewAsm(cmpBlocks)
	for i := 0; i < computeBlocks; i++ {
		b.Label(fmt.Sprint("b", i)).
			ADDI(isa.R0, isa.R0, uint16(i&0xFFF)).
			XOR(isa.R2, isa.R0, isa.R1).
			ORR(isa.R3, isa.R2, isa.R0).
			AND(isa.R2, isa.R3, isa.R1).
			ADD(isa.R5, isa.R5, isa.R2).
			SUB(isa.R2, isa.R3, isa.R0).
			XOR(isa.R1, isa.R1, isa.R2)
		if next[i] < 0 {
			b.BX(isa.R8)
		} else {
			b.B(fmt.Sprint("b", next[i]))
		}
	}
	return []image{
		{guestCode, progBytes(code)},
		{cmpBlocks, progBytes(b.MustAssemble())},
		{cmpTable, words32(in.offsets)},
		{cmpData, in.data},
		{guestVars, make([]byte, mmu.PageSize)},
	}, insns
}

// computeRun is what one execution of the guest leaves behind.
type computeRun struct {
	cycles, insns uint64
	opCycles      []uint64 // simulated cycles of each full op
	state         string   // digest of final registers and data pages
}

// runCompute boots the guest on env and runs it to power-off inside the
// timed region (or plainly, for the twins, when rec is nil).
func runCompute(rec *recorder, backend string, env *hv.Env, images []image, want, opInsns uint64, singleStep bool) (computeRun, error) {
	var out computeRun
	load := func() (vm hv.VM, v hv.VCPU, err error) {
		vm, v, err = bootRaw(env, rawGuest{memBytes: cmpMem, images: images, cpsr: cpsrMasked, singleStep: singleStep})
		return
	}
	var vm hv.VM
	var v hv.VCPU
	var err error
	if rec != nil {
		err = rec.setup("load_image", func() error { vm, v, err = load(); return err })
	} else {
		vm, v, err = load()
	}
	if err != nil {
		return out, err
	}
	cpu := env.Board.CPUs[0]
	run := func() error {
		clock0, insns0 := cpu.Clock, cpu.Insns
		nextOp, opStart := insns0+opInsns, clock0
		done := func() bool {
			if cpu.Insns >= nextOp {
				out.opCycles = append(out.opCycles, cpu.Clock-opStart)
				nextOp, opStart = nextOp+opInsns, cpu.Clock
			}
			return env.Host.LiveCount() == 0
		}
		if !env.Board.Run(want+1_000_000, done) {
			return fmt.Errorf("guest-compute on %s did not finish (%s)", backend, v.State())
		}
		out.cycles, out.insns = cpu.Clock-clock0, cpu.Insns-insns0
		return nil
	}
	if rec != nil {
		out.opCycles = make([]uint64, 0, want/opInsns+1)
		err = rec.timed(backend, func() error { return rec.span("board_run", run) })
	} else {
		err = run()
	}
	if err != nil {
		return out, err
	}
	regs, err := regsOf(v)
	if err != nil {
		return out, err
	}
	data, err := vm.ReadGuestMem(cmpData, computePages*mmu.PageSize)
	if err != nil {
		return out, err
	}
	flag, err := readWord(vm, cmpDone)
	if err != nil {
		return out, err
	}
	if flag != 1 || out.insns != want {
		return out, fmt.Errorf("guest-compute on %s retired %d instructions, want %d (done flag %d)", backend, out.insns, want, flag)
	}
	out.state = digest(regs, data)
	return out, nil
}

// guestCompute runs the workload on its three backends and checks it
// against the single-step twins.
func guestCompute(rec *recorder, seed uint64, sz sizes) error {
	in := genComputeInputs(seed)
	for _, name := range computeBackends {
		if !slices.Contains(sz.backends, name) {
			continue
		}
		be, err := lookup(name)
		if err != nil {
			return err
		}
		share := 1
		if !blockDispatch(name) {
			share = computeStepShare
		}
		images, want := computeImages(in, sz.computeRounds/share)
		env, err := rec.newEnv(be, 1)
		if err != nil {
			return err
		}
		res, err := runCompute(rec, name, env, images, want, uint64(sz.opInsns), false)
		if err != nil {
			return err
		}
		row := rec.row(name)
		row.SimCycles, row.Ops = res.cycles, res.insns/uint64(sz.opInsns)
		row.Lat = percentiles(res.opCycles)
		rec.insns += res.insns
		rec.addCounts(env)
		rec.outputs = append(rec.outputs, []byte(res.state), binary.LittleEndian.AppendUint64(nil, res.cycles))
		if err := rec.retireEnvs(); err != nil {
			return err
		}
	}
	return rec.verify(func() error { return computeTwins(rec, in, sz) })
}

// blockDispatch reports whether a backend runs raw guests through the
// decoded-block cache; the others single-step.
func blockDispatch(backend string) bool { return backend == "arm" || backend == "arm-vhe" }

// computeTwins is the oracle: at 1/50 size, block dispatch and a
// single-stepped twin must agree on final registers, data pages and
// simulated cycles on each block-cache backend, and every backend must
// reach the same registers and data.
func computeTwins(rec *recorder, in computeInputs, sz sizes) error {
	images, want := computeImages(in, sz.computeRounds/computeTwinDiv)
	var ref string
	for _, name := range computeBackends {
		if !slices.Contains(sz.backends, name) {
			continue
		}
		be, err := lookup(name)
		if err != nil {
			return err
		}
		var runs []computeRun
		for _, single := range []bool{true, false} {
			if !single && !blockDispatch(name) {
				continue
			}
			env, err := be.NewEnv(1)
			if err != nil {
				return err
			}
			r, err := runCompute(nil, name, env, images, want, uint64(sz.opInsns), single)
			if err != nil {
				return err
			}
			runs = append(runs, r)
			runtime.GC() // as retireEnvs, on the verification clock
		}
		if len(runs) == 2 && (runs[0].state != runs[1].state || runs[0].cycles != runs[1].cycles) {
			rec.failf("guest-compute %s: block dispatch diverged from the single-step twin (cycles %d vs %d)",
				name, runs[1].cycles, runs[0].cycles)
		}
		if ref == "" {
			ref = runs[0].state
		} else if runs[0].state != ref {
			rec.failf("guest-compute %s: final state differs from %s", name, computeBackends[0])
		}
	}
	return nil
}
