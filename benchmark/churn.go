package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"kvmarm/internal/fleet"
	"kvmarm/internal/hv"
	"kvmarm/internal/isa"
	"kvmarm/internal/machine"
	"kvmarm/internal/mmu"
)

// fleet-churn: snapshot, fork, copy-on-write and live migration. Per
// backend and generation a template guest boots and stamps 256 dataset
// pages (setup); then, timed, it is captured, 200 clones are forked from
// the snapshot, every clone spins for a seeded think time, writes a seeded
// 48 of the 256 pages (each a copy-on-write break) and powers off, and two
// writer clones that are still running are live-migrated with pre-copy to
// a second board, where they finish. A backend has 255 VMIDs per environment and no VM destroy,
// hence a fresh environment per generation. mmu (write-protect faults,
// CoW, dirty log), hv (snapshot, fork, migrate), fleet (placement) and
// mem do the work; the instruction interpreter does little.

const (
	fcReady  = guestVars      // template: dataset stamped
	fcGo     = guestVars + 4  // host: start writing
	fcID     = guestVars + 8  // host: this instance's id
	fcRounds = guestVars + 12 // host: passes over the instance's pages
	fcThink  = guestVars + 16 // host: spins before the first write
	fcDone   = guestVars + 20 // instance: finished
	fcTable  = guestVars + 0x10000
	fcData   = machine.RAMBase + 4<<20
	fcBell   = 0x1D00_0000 // doorbell: an instance writes its id when done

	// fcThinkMax bounds an instance's think time (spins of four
	// instructions): a few percent of what its writes cost.
	fcThinkMax = 1024

	// fcTableShift: an instance's row of the page table is 1<<fcTableShift
	// bytes, room for 64 page indices of which churnWrites are used.
	fcTableShift = 8

	// Pre-copy shape of the writer migrations.
	fcPrecopyRounds = 2
	fcRoundBudget   = 2000
)

// churnInputs is what the seed decides: which pages each instance writes,
// and how long it thinks before the first.
type churnInputs struct {
	pages  [][]int // per instance id: churnWrites distinct page indices
	thinks []int   // per instance id: spins
}

func genChurnInputs(seed uint64, instances int) churnInputs {
	in := churnInputs{pages: make([][]int, instances), thinks: make([]int, instances)}
	think := newRNG(seed, "churn/think")
	for id := range in.pages {
		in.pages[id] = newRNG(seed, fmt.Sprint("churn/pages/", id)).perm(churnPages)[:churnWrites]
		in.thinks[id] = think.intn(fcThinkMax)
	}
	return in
}

func (in churnInputs) table() []byte {
	var b []byte
	for _, p := range in.pages {
		row := make([]byte, 1<<fcTableShift)
		copy(row, words32(p))
		b = append(b, row...)
	}
	return b
}

func (in churnInputs) bytes() []byte { return []byte(digest(in.table(), words32(in.thinks))) }

// churnProgram stamps the dataset, raises the ready flag and polls the go
// word (a hypercall per poll). Released, it reads its id, round count and
// think time, spins, writes id+round into word 1 of each of its pages,
// round after round, sets the done flag, rings the doorbell and powers off.
func churnProgram() []byte {
	return progBytes(isa.NewAsm(guestCode).
		MOV32(isa.R1, fcData).
		MOV32(isa.R4, fcData+churnPages*mmu.PageSize).
		MOVW(isa.R8, mmu.PageSize).
		MOVW(isa.R2, 1).
		Label("stamp").
		STR(isa.R2, isa.R1, 0).
		ADD(isa.R1, isa.R1, isa.R8).
		CMP(isa.R1, isa.R4).
		BNE("stamp").
		MOV32(isa.R12, guestVars).
		STR(isa.R2, isa.R12, fcReady-guestVars).
		Label("wait").
		HVC(1).
		LDR(isa.R0, isa.R12, fcGo-guestVars).
		CMPI(isa.R0, 0).
		BEQ("wait").
		LDR(isa.R7, isa.R12, fcID-guestVars).
		LDR(isa.R6, isa.R12, fcRounds-guestVars).
		LDR(isa.R2, isa.R12, fcThink-guestVars).
		Label("think").
		CMPI(isa.R2, 0).
		BEQ("thought").
		SUBI(isa.R2, isa.R2, 1).
		B("think").
		Label("thought").
		MOVW(isa.R0, fcTableShift).
		LSL(isa.R1, isa.R7, isa.R0).
		MOV32(isa.R10, fcTable).
		ADD(isa.R10, isa.R10, isa.R1).
		MOV32(isa.R11, fcData).
		MOVW(isa.R9, 12).
		Label("round").
		MOVW(isa.R2, 0).
		ADD(isa.R5, isa.R7, isa.R6). // id + rounds left: ends at id+1
		Label("write").
		LDRR(isa.R1, isa.R10, isa.R2).
		LSL(isa.R1, isa.R1, isa.R9).
		ADD(isa.R3, isa.R11, isa.R1).
		STR(isa.R5, isa.R3, 4).
		ADDI(isa.R2, isa.R2, 4).
		CMPI(isa.R2, churnWrites*4).
		BNE("write").
		SUBI(isa.R6, isa.R6, 1).
		CMPI(isa.R6, 0).
		BNE("round").
		MOVW(isa.R0, 1).
		STR(isa.R0, isa.R12, fcDone-guestVars).
		MOV32(isa.R1, fcBell).
		STR(isa.R7, isa.R1, 0). // last: the host may stop the board here
		HVC(powerOff).
		MustAssemble())
}

// bell is the doorbell device: it notes the board time at which each
// instance id reported itself done.
type bell struct {
	now  func() uint64
	rang map[uint32]uint64
}

func (*bell) Name() string                     { return "doorbell" }
func (*bell) Read(hv.VCPU, uint64, int) uint64 { return 0 }
func (b *bell) Write(_ hv.VCPU, _ uint64, _ int, val uint64) {
	b.rang[uint32(val)] = b.now()
}

// churnExpected is the state the program leaves in an instance: per
// dataset page the init stamp in word 0 and id+1 in word 1 of the pages
// the instance writes, then the done flag.
func churnExpected(in churnInputs, id int) []byte {
	state := make([]byte, churnPages*8+4)
	le := binary.LittleEndian
	for p := 0; p < churnPages; p++ {
		le.PutUint32(state[8*p:], 1)
	}
	for _, p := range in.pages[id] {
		le.PutUint32(state[8*p+4:], uint32(id+1))
	}
	le.PutUint32(state[churnPages*8:], 1)
	return state
}

// churnState reads the same words out of a VM.
func churnState(vm hv.VM) ([]byte, error) {
	state := make([]byte, 0, churnPages*8+4)
	for p := 0; p < churnPages; p++ {
		b, err := vm.ReadGuestMem(fcData+uint64(p)*mmu.PageSize, 8)
		if err != nil {
			return nil, err
		}
		state = append(state, b...)
	}
	b, err := vm.ReadGuestMem(fcDone, 4)
	return append(state, b...), err
}

// bootChurnTemplate boots the program and runs it through the stamping
// phase into its wait loop. db, when set, is the doorbell it will ring (a
// template never does: its clones get their own).
func bootChurnTemplate(env *hv.Env, in churnInputs, db *bell) (hv.VM, error) {
	g := rawGuest{
		memBytes: churnGuestBytes, cpsr: cpsrIRQOpen,
		images: []image{{guestCode, churnProgram()}, {guestVars, make([]byte, mmu.PageSize)}, {fcTable, in.table()}},
	}
	if db != nil {
		g.devices = func(vm hv.VM) { vm.AddKernelMMIO(fcBell, 0x1000, db) }
	}
	vm, _, err := bootRaw(env, g)
	if err != nil {
		return nil, err
	}
	step := 0
	ready := func() bool {
		if step++; step%64 != 0 {
			return false
		}
		w, err := readWord(vm, fcReady)
		return err == nil && w == 1
	}
	if !env.Board.Run(10_000_000, ready) {
		return nil, fmt.Errorf("fleet-churn template did not finish stamping")
	}
	return vm, nil
}

// release hands an instance its id, round count and think time and lets
// it go.
func release(vm hv.VM, in churnInputs, id, rounds int) error {
	return vm.WriteGuestMem(fcGo, words32([]int{1, id, rounds, in.thinks[id]}))
}

// churnGeneration is one generation's result.
type churnGeneration struct {
	cycles      uint64
	ready       []uint64 // fork -> clone-done latency per clone
	downtimes   []uint64
	precopied   int
	copied      int // pages transferred, pre-copy rounds and the final one
	rounds      int
	dirtyFaults uint64 // write faults the migrating writers took under the dirty log
	shared      float64
}

// runGeneration runs one generation on fresh environments.
func runGeneration(rec *recorder, name string, be *hv.Backend, in churnInputs, sz sizes, twin bool) (churnGeneration, error) {
	var g churnGeneration
	env, err := rec.newEnv(be, churnCPUs)
	if err != nil {
		return g, err
	}
	dst, err := rec.newEnv(be, 1)
	if err != nil {
		return g, err
	}
	env.Host.SetTimeSlice(trQuantum)
	var template hv.VM
	if err := rec.setup("load_image", func() error { template, err = bootChurnTemplate(env, in, nil); return err }); err != nil {
		return g, err
	}

	instances := sz.clones + churnWriters
	srcBell := &bell{now: env.Board.Now, rang: make(map[uint32]uint64, instances)}
	dstBell := &bell{now: dst.Board.Now, rang: make(map[uint32]uint64, churnWriters)}
	forkedAt := make([]uint64, instances)
	var vms, moved []hv.VM
	var fl *fleet.Fleet

	insns0 := guestInsns(env) + guestInsns(dst)
	err = rec.timed(name, func() error {
		src0, dst0 := env.Board.Now(), dst.Board.Now()
		if err := rec.span("snapshot", func() (err error) {
			fl, err = fleet.New(env, template, fleet.Options{
				ConfigureVCPU: interpFor,
				Snapshot:      hv.SnapshotOptions{KeepPaused: true},
			})
			return err
		}); err != nil {
			return err
		}
		if err := rec.span("fork", func() error {
			for id := 0; id < instances; id++ {
				forkedAt[id] = env.Board.Now()
				vm, err := fl.Fork()
				if err != nil {
					return err
				}
				vm.AddKernelMMIO(fcBell, 0x1000, srcBell)
				rounds := 1
				if id >= sz.clones {
					rounds = sz.writerRounds
				}
				if err := release(vm, in, id, rounds); err != nil {
					return err
				}
				vms = append(vms, vm)
			}
			return nil
		}); err != nil {
			return err
		}
		if err := rec.span("board_run", func() error {
			clonesDone := func() bool {
				n := len(srcBell.rang)
				for id := sz.clones; id < instances; id++ {
					if _, ok := srcBell.rang[uint32(id)]; ok {
						n--
					}
				}
				return n >= sz.clones
			}
			if !env.Board.Run(uint64(sz.clones)*200_000+10_000_000, clonesDone) {
				return fmt.Errorf("fleet-churn %s: %d of %d clones finished", name, len(srcBell.rang), sz.clones)
			}
			return nil
		}); err != nil {
			return err
		}
		if err := rec.span("migrate", func() error {
			for id := sz.clones; id < instances; id++ {
				if _, finished := srcBell.rang[uint32(id)]; finished {
					return fmt.Errorf("fleet-churn %s: writer %d finished before its migration; raise writerRounds", name, id)
				}
				dvm, err := dst.HV.CreateVM(churnGuestBytes)
				if err != nil {
					return err
				}
				dvm.AddKernelMMIO(fcBell, 0x1000, dstBell)
				// The writer broke its copy-on-write pages long ago, so every
				// stage-2 fault it takes from here on is a dirty-log write fault.
				faults0 := vms[id].StatsSnapshot().Stage2Faults
				res, err := hv.Migrate(env, vms[id], dst, dvm, hv.MigrateOptions{
					Precopy: true, Rounds: fcPrecopyRounds, RoundBudget: fcRoundBudget, ConfigureVCPU: interpFor, Tracer: rec.tracer,
				})
				g.dirtyFaults += vms[id].StatsSnapshot().Stage2Faults - faults0
				if err != nil {
					rec.failf("fleet-churn %s: migrating writer %d: %v", name, id, err)
					continue
				}
				moved = append(moved, dvm)
				g.downtimes = append(g.downtimes, res.DowntimeCycles)
				g.precopied += res.PagesPrecopied
				g.copied += res.PagesPrecopied + res.PagesFinal
				g.rounds += res.Rounds
			}
			return nil
		}); err != nil {
			return err
		}
		err := rec.span("board_run", func() error {
			if !dst.Board.Run(uint64(sz.writerRounds)*10_000+10_000_000, func() bool { return len(dstBell.rang) == len(moved) }) {
				return fmt.Errorf("fleet-churn %s: %d of %d migrated writers finished", name, len(dstBell.rang), len(moved))
			}
			return nil
		})
		g.cycles = env.Board.Now() - src0 + dst.Board.Now() - dst0
		return err
	})
	if err != nil {
		return g, err
	}
	rec.insns += guestInsns(env) + guestInsns(dst) - insns0
	for id := 0; id < sz.clones; id++ {
		g.ready = append(g.ready, srcBell.rang[uint32(id)]-forkedAt[id])
	}
	g.shared = fl.Stats().SharedFraction()

	// Oracle: every instance's pages hold what the program writes, and
	// (first generation) an unforked, unmigrated twin ends in that state.
	err = rec.verify(func() error {
		final := append(append([]hv.VM(nil), vms[:sz.clones]...), moved...)
		for i, vm := range final {
			got, err := churnState(vm)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, churnExpected(in, i)) {
				rec.failf("fleet-churn %s: instance %d ended in the wrong state", name, i)
			}
		}
		if !twin {
			return nil
		}
		return churnTwins(rec, name, be, in, sz, []int{0, sz.clones - 1, sz.clones, instances - 1})
	})
	rec.addCounts(env)
	rec.addCounts(dst)
	return g, err
}

// churnTwins runs the given instance ids unforked and unmigrated, one after
// another in a fresh environment, and compares their final state.
func churnTwins(rec *recorder, name string, be *hv.Backend, in churnInputs, sz sizes, ids []int) error {
	env, err := be.NewEnv(1)
	if err != nil {
		return err
	}
	db := &bell{now: env.Board.Now, rang: map[uint32]uint64{}}
	for _, id := range ids {
		vm, err := bootChurnTemplate(env, in, db)
		if err != nil {
			return err
		}
		rounds := 1
		if id >= sz.clones {
			rounds = sz.writerRounds
		}
		if err := release(vm, in, id, rounds); err != nil {
			return err
		}
		if !env.Board.Run(uint64(rounds)*10_000+10_000_000, func() bool { return env.Host.LiveCount() == 0 }) {
			return fmt.Errorf("fleet-churn %s: twin %d did not finish", name, id)
		}
		got, err := churnState(vm)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, churnExpected(in, id)) {
			rec.failf("fleet-churn %s: the sequential twin of instance %d ended in another state", name, id)
		}
	}
	return nil
}

// fleetChurn runs the workload on all five backends.
func fleetChurn(rec *recorder, seed uint64, sz sizes) error {
	in := genChurnInputs(seed, sz.clones+churnWriters)
	var downtimes []uint64
	for _, name := range sz.backends {
		be, err := lookup(name)
		if err != nil {
			return err
		}
		row := rec.row(name)
		var ready []uint64
		for gen := 0; gen < sz.generations; gen++ {
			g, err := runGeneration(rec, name, be, in, sz, gen == 0)
			if err != nil {
				return err
			}
			row.SimCycles += g.cycles
			// Forks and migrations attempted, whatever their outcome: a
			// rolled-back migration is a failed op, not a missing one.
			row.Ops += uint64(sz.clones + churnWriters + churnWriters)
			ready = append(ready, g.ready...)
			downtimes = append(downtimes, g.downtimes...)
			rec.counts["forks"] += float64(sz.clones + churnWriters)
			rec.counts["pages_migrated"] += float64(g.copied)
			rec.counts["hv.pages_precopied"] += float64(g.precopied)
			rec.counts["hv.migrate_rounds"] += float64(g.rounds)
			rec.counts["mmu.dirty_faults"] += float64(g.dirtyFaults)
			rec.counts["fleet.shared_frac"] = g.shared
			if err := rec.retireEnvs(); err != nil { // a generation retires two boards
				return err
			}
		}
		row.Lat = percentiles(ready)
		rec.outputs = append(rec.outputs, binary.LittleEndian.AppendUint64(nil, row.SimCycles))
	}
	sort.Slice(downtimes, func(i, j int) bool { return downtimes[i] < downtimes[j] })
	if n := len(downtimes); n > 0 {
		rec.counts["sim_downtime_cycles"] = float64(downtimes[n/2])
	}
	return nil
}
