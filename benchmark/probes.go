package main

import (
	"flag"
	"fmt"
	"testing"

	"kvmarm/internal/arm"
	"kvmarm/internal/dev"
	"kvmarm/internal/fleet"
	"kvmarm/internal/gic"
	"kvmarm/internal/hv"
	"kvmarm/internal/isa"
	"kvmarm/internal/machine"
	"kvmarm/internal/mem"
	"kvmarm/internal/mmu"
	"kvmarm/internal/net"
	"kvmarm/internal/trace"
)

// Layer probes: host nanoseconds (and, for the world switch, allocations)
// per call of one exported function or tight loop of a single layer, timed
// from outside with the standard benchmark driver: each sample runs for at
// least the budget's time, and the median of its samples is reported.
// They say what one TLB hit, one forwarded frame or one fork costs the
// host, so a change in an end-to-end number can be traced to its layer.

// probeBudget is how long the probes measure: one pass over all of them
// takes about a hundred times benchtime (their untimed setup included).
type probeBudget struct {
	samples   int
	benchtime string
}

var (
	// fullProbes is what `run -trace` takes: under a minute in all.
	fullProbes = probeBudget{5, "100ms"}
	// driverProbes fits the acceptance driver's traced run (the probes,
	// two untraced repeats and the traced one) into its thirty seconds.
	driverProbes = probeBudget{3, "20ms"}
)

// sink keeps results alive so the compiler cannot drop the measured call.
var sink uint64

type probe struct {
	name string
	// per divides the reported cost: a probe whose op handles per items
	// (pages, instructions) reports the cost of one. A negative per marks
	// a probe that runs a fixed -per iterations per sample and not for
	// the budget's time: its untimed setup (a fresh environment per 200 VMs)
	// costs a thousand times what it measures.
	per int
	fn  func(b *testing.B)
}

// runProbes runs every layer probe and returns name -> median ns (or
// allocations, for the *_allocs probes) per op.
func runProbes(budget probeBudget) (map[string]float64, error) {
	testing.Init()
	out := map[string]float64{}
	for _, p := range layerProbes() {
		benchtime := budget.benchtime
		if p.per < 0 {
			benchtime = fmt.Sprint(-p.per, "x")
		}
		if err := flag.Set("test.benchtime", benchtime); err != nil {
			return nil, err
		}
		var ns, allocs []float64
		for i := 0; i < budget.samples; i++ {
			var failed string
			r := testing.Benchmark(func(b *testing.B) {
				defer func() {
					if x := recover(); x != nil {
						failed = fmt.Sprint(x)
					}
				}()
				b.ReportAllocs()
				p.fn(b)
			})
			if failed != "" || r.N == 0 {
				return nil, fmt.Errorf("benchmark: probe %s failed: %s", p.name, failed)
			}
			per := float64(max(p.per, 1))
			ns = append(ns, float64(r.T.Nanoseconds())/float64(r.N)/per)
			allocs = append(allocs, float64(r.MemAllocs)/float64(r.N)/per)
		}
		out[p.name+"_ns"] = median(ns)
		if _, isExit := exitProbeBackends[p.name]; isExit {
			out[p.name+"_allocs"] = median(allocs)
		}
	}
	return out, nil
}

// must turns a setup error into a panic that runProbes reports.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// bump is a trivial page allocator over a RAM range for table probes. It
// hands out zeroed pages, as page tables require.
type bump struct {
	ram             *mem.Physical
	base, next, end uint64
}

func (a *bump) AllocPages(n int) (uint64, error) {
	pa := a.next
	a.next += uint64(n) * mmu.PageSize
	if a.next > a.end {
		return 0, fmt.Errorf("probe allocator exhausted")
	}
	return pa, a.ram.Zero(pa, uint64(n)*mmu.PageSize)
}

func (a *bump) reset() { a.next = a.base }

const (
	probeRAM   = 64 << 20
	probePages = 1024
)

// bareCPU is a CPU on a board with no software, MMU off, in secure SVC.
func bareCPU() (*machine.Board, *arm.CPU) {
	b, err := machine.New(machine.Config{CPUs: 1, RAMBytes: 16 << 20, HasVGIC: true, HasVirtTimer: true})
	must(err)
	return b, b.CPUs[0]
}

// aluLoop is n ALU instructions and a branch back to the start.
func aluLoop(n int) []uint32 {
	a := isa.NewAsm(machine.RAMBase).Label("top")
	for i := 0; i < n; i++ {
		a.ADD(isa.R0, isa.R0, isa.R1)
	}
	return a.B("top").MustAssemble()
}

// blocksOf is n straight-line blocks of size instructions each, the last
// of every block a branch to the next block.
func blocksOf(n, size int) []uint32 {
	a := isa.NewAsm(machine.RAMBase)
	for i := 0; i < n; i++ {
		a.Label(fmt.Sprint("b", i))
		for j := 1; j < size; j++ {
			a.ADD(isa.R0, isa.R0, isa.R1)
		}
		a.B(fmt.Sprint("b", (i+1)%n))
	}
	return a.MustAssemble()
}

// exitProbeBackends maps the world-switch probes to the backend family
// they time.
var exitProbeBackends = map[string]string{"core.exit": "arm", "vhe.exit": "arm-vhe", "kvmx86.exit": "x86-laptop"}

// template boots the fleet-churn program (256 stamped pages, parked in its
// wait loop): the standard guest of the hv and fleet probes.
func template(backend string, cpus int) (*hv.Env, hv.VM) {
	be, err := lookup(backend)
	must(err)
	env, err := be.NewEnv(cpus)
	must(err)
	vm, err := bootChurnTemplate(env, genChurnInputs(1, 1), nil)
	must(err)
	return env, vm
}

// forkBatch is how many clones one environment takes before the probes
// build a fresh one (a backend has 255 VMIDs and no VM destroy).
const forkBatch = 200

func layerProbes() []probe {
	ps := []probe{
		{"isa.decode", 1, func(b *testing.B) {
			words := aluLoop(255)
			for i := 0; i < b.N; i++ {
				in := isa.Decode(words[i&255])
				sink += uint64(in.Op)
			}
		}},
		{"isa.exec_alu", 1, func(b *testing.B) {
			_, c := bareCPU()
			it, in := &isa.Interp{}, isa.Decode(aluLoop(1)[0])
			for i := 0; i < b.N; i++ {
				it.Exec(c, &in)
			}
		}},
		{"isa.exec_ldst", 1, func(b *testing.B) {
			_, c := bareCPU()
			c.Regs.SetR(isa.R1, machine.RAMBase+0x1000)
			it := &isa.Interp{}
			ld := isa.Decode(isa.NewAsm(0).LDR(isa.R0, isa.R1, 0).MustAssemble()[0])
			st := isa.Decode(isa.NewAsm(0).STR(isa.R0, isa.R1, 4).MustAssemble()[0])
			for i := 0; i < b.N; i += 2 {
				it.Exec(c, &ld)
				it.Exec(c, &st)
			}
		}},
		{"isa.step_single", 1, func(b *testing.B) {
			board, c := bareCPU()
			must(board.LoadProgram(machine.RAMBase, aluLoop(100)))
			c.Regs.SetPC(machine.RAMBase)
			it := &isa.Interp{}
			for i := 0; i < b.N; i++ {
				it.Step(c)
			}
		}},
		{"isa.block_insn", 101, func(b *testing.B) {
			board, c := bareCPU()
			must(board.LoadProgram(machine.RAMBase, aluLoop(100)))
			c.Regs.SetPC(machine.RAMBase)
			r := &isa.BlockRunner{It: &isa.Interp{}, Cache: isa.NewBlockCache(board.RAM)}
			for i := 0; i < b.N; i++ {
				r.Step(c) // one block: 100 ALU instructions and the branch
			}
		}},
		{"isa.block_fill", 1, func(b *testing.B) {
			board, _ := bareCPU()
			must(board.LoadProgram(machine.RAMBase, blocksOf(probePages, 8)))
			bc := isa.NewBlockCache(board.RAM)
			for i := 0; i < b.N; i++ {
				if i%probePages == 0 {
					bc.InvalidateAll()
				}
				bc.Fill(machine.RAMBase + uint64(i%probePages)*32) // an eight-instruction block
			}
		}},
		{"isa.block_inval", 1, func(b *testing.B) {
			board, _ := bareCPU()
			// A one-instruction block (a branch to itself) at the start of
			// every page, so the untimed refill stays cheap.
			const pages = 16 << 20 / mmu.PageSize
			self := isa.Encode(isa.Instr{Op: isa.OpB, Imm24: -1})
			for p := uint64(0); p < pages; p++ {
				must(board.RAM.Write32(machine.RAMBase+p*mmu.PageSize, self))
			}
			bc := isa.NewBlockCache(board.RAM)
			for i := 0; i < b.N; i++ {
				if i%pages == 0 {
					b.StopTimer()
					for p := uint64(0); p < pages; p++ {
						bc.Fill(machine.RAMBase + p*mmu.PageSize)
					}
					b.StartTimer()
				}
				bc.OnWrite(machine.RAMBase+uint64(i%pages)*mmu.PageSize, 4)
			}
		}},
		{"mmu.tlb_hit", 1, func(b *testing.B) {
			m, ctx := twoStage()
			for i := 0; i < b.N; i++ {
				r, f := m.Translate(ctx, machine.RAMBase, mmu.Load)
				if f != nil {
					panic(f)
				}
				sink += r.PA
			}
		}},
		{"mmu.walk_2d", 1, func(b *testing.B) {
			m, ctx := twoStage() // probePages pages, twice the TLB: striding them always misses
			for i := 0; i < b.N; i++ {
				r, f := m.Translate(ctx, machine.RAMBase+uint32(i%probePages)*mmu.PageSize, mmu.Load)
				if f != nil {
					panic(f)
				}
				sink += r.PA
			}
		}},
		{"mmu.map_page", 1, func(b *testing.B) {
			const batch = 8192 // pages per table, eight L2 tables' worth
			ram := mem.New(machine.RAMBase, probeRAM)
			pool := &bump{ram: ram, base: machine.RAMBase, next: machine.RAMBase, end: machine.RAMBase + probeRAM}
			var t *mmu.Builder
			for i := 0; i < b.N; i++ {
				if i%batch == 0 { // a fresh table per batch, untimed
					b.StopTimer()
					pool.reset()
					var err error
					t, err = mmu.NewBuilder(mmu.TableStage2, ram, pool)
					must(err)
					b.StartTimer()
				}
				must(t.MapPage(machine.RAMBase+uint32(i%batch)*mmu.PageSize, machine.RAMBase, mmu.MapFlags{W: true}))
			}
		}},
		{"mmu.dirty_fault", 1, func(b *testing.B) {
			t, _, _ := stage2Table()
			_, err := t.EnableDirtyLog(func(uint64) bool { return true })
			must(err)
			for i := 0; i < b.N; i++ {
				if i%probePages == 0 && i > 0 { // drain: re-protect every page, untimed
					b.StopTimer()
					_, err := t.CollectDirty()
					must(err)
					b.StartTimer()
				}
				_, err := t.DirtyFault(machine.RAMBase + uint64(i%probePages)*mmu.PageSize)
				must(err)
			}
		}},
		{"mmu.cow_break", 1, func(b *testing.B) {
			src, ram, pool := stage2Table()
			cow := mmu.NewCowPool()
			_, err := src.FreezeCow(cow, func(uint64) bool { return true })
			must(err)
			mark := pool.next
			var clone *mmu.Builder
			for i := 0; i < b.N; i++ {
				if i%probePages == 0 { // a fresh clone sharing every page, untimed
					b.StopTimer()
					pool.next = mark
					clone, err = mmu.NewBuilder(mmu.TableStage2, ram, pool)
					must(err)
					for page, pa := range src.CowPages() {
						must(clone.AdoptCowPage(cow, uint32(page), pa))
					}
					b.StartTimer()
				}
				_, err := clone.CowFault(machine.RAMBase + uint64(i%probePages)*mmu.PageSize)
				must(err)
			}
		}},
		{"mmu.flush_vmid", 1, func(b *testing.B) {
			m, ctx := twoStage()
			for p := uint32(0); p < 512; p++ { // fill the TLB with VMID 1
				m.Translate(ctx, machine.RAMBase+p*mmu.PageSize, mmu.Load)
			}
			for i := 0; i < b.N; i++ {
				m.FlushVMID(2) // scans the full TLB, matches nothing
			}
		}},
		{"mem.new_64mb", 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += mem.New(machine.RAMBase, 64<<20).Size()
			}
		}},
		{"mem.rw32", 1, func(b *testing.B) {
			ram := mem.New(machine.RAMBase, 1<<20)
			for i := 0; i < b.N; i++ {
				a := machine.RAMBase + uint64(i&0xFFFF)*4
				must(ram.Write32(a, uint32(i)))
				v, _ := ram.Read32(a)
				sink += uint64(v)
			}
		}},
		{"gic.vgic_save_restore", 1, func(b *testing.B) {
			g := gic.New(1, 128)
			g.HasVGIC = true
			g.SetVGICEnabled(0, true)
			must(g.WriteLR(0, 0, gic.ListReg{VirtID: 27, State: gic.LRPending}))
			for i := 0; i < b.N; i++ {
				st, c1 := g.SaveVGIC(0)
				sink += c1 + g.RestoreVGIC(0, st)
			}
		}},
		{"gic.vack_veoi", 1, func(b *testing.B) {
			g := gic.New(1, 128)
			g.HasVGIC = true
			g.SetVGICEnabled(0, true)
			for i := 0; i < b.N; i++ {
				must(g.WriteLR(0, 0, gic.ListReg{VirtID: 27, State: gic.LRPending}))
				g.VEOI(0, g.VAck(0))
			}
		}},
		{"dev.virt_tx", 1, func(b *testing.B) {
			frame := make([]byte, 256)
			v := &dev.Virt{Class: dev.VirtNet, ReadMem: func(uint64, int) ([]byte, error) { return frame, nil },
				SendFrame: func(f []byte) { sink += uint64(len(f)) }}
			for i := 0; i < b.N; i++ {
				must(v.Tx(0x1000, 256)) // no scheduler wired: completes at once
				v.Drain()
			}
		}},
		{"dev.virt_rx", 1, func(b *testing.B) {
			frame := make([]byte, 256)
			v := &dev.Virt{Class: dev.VirtNet, WriteMem: func(uint64, []byte) error { return nil }}
			for i := 0; i < b.N; i++ {
				v.PostRxBuffer(0x1000)
				v.DeliverFrame(frame)
			}
		}},
		{"dev.save_restore", 1, func(b *testing.B) {
			v := &dev.Virt{Class: dev.VirtNet, WriteMem: func(uint64, []byte) error { return nil }}
			for i := 0; i < 4; i++ {
				v.DeliverFrame(make([]byte, 256)) // four frames queued, no buffer posted
			}
			for i := 0; i < b.N; i++ {
				v.RestoreState(v.SaveState())
			}
		}},
		{"net.forward", 1, func(b *testing.B) {
			sw, ports := hostSwitch(2)
			f := net.MakeFrame(ports[1].MAC, ports[0].MAC, 1, 1, make([]byte, 256))
			for i := 0; i < b.N; i++ {
				ports[0].Inject(f)
			}
			sink += sw.Forwarded
		}},
		{"net.flood8", 1, func(b *testing.B) {
			sw, ports := hostSwitch(9)
			f := net.MakeFrame(net.Broadcast, ports[0].MAC, 1, 1, make([]byte, 256))
			for i := 0; i < b.N; i++ {
				ports[0].Inject(f)
			}
			sink += sw.Flooded
		}},
		{"net.seal_verify", 1, func(b *testing.B) {
			f := net.MakeFrame(2, 1, 1, 1, make([]byte, 1024))
			for i := 0; i < b.N; i++ {
				net.Seal(f)
				if !net.Verify(f) {
					panic("sealed frame failed to verify")
				}
			}
		}},
		{"hv.new_env", 1, func(b *testing.B) {
			be, err := lookup("arm")
			must(err)
			for i := 0; i < b.N; i++ {
				_, err := be.NewEnv(1)
				must(err)
			}
		}},
		{"hv.create_vm", -forkBatch, func(b *testing.B) {
			be, err := lookup("arm")
			must(err)
			var env *hv.Env
			for i := 0; i < b.N; i++ {
				if i%forkBatch == 0 {
					b.StopTimer()
					env, err = be.NewEnv(1)
					must(err)
					b.StartTimer()
				}
				_, err := env.HV.CreateVM(16 << 20)
				must(err)
			}
		}},
		{"hv.write_guest_page", 1, func(b *testing.B) {
			_, vm := template("arm", 1)
			page := make([]byte, mmu.PageSize)
			for i := 0; i < b.N; i++ {
				must(vm.WriteGuestMem(fcData+uint64(i%churnPages)*mmu.PageSize, page))
			}
		}},
		{"hv.snapshot", 1, func(b *testing.B) {
			env, vm := template("arm", 1)
			for i := 0; i < b.N; i++ {
				snap, err := hv.CaptureSnapshot(env, vm, hv.SnapshotOptions{KeepPaused: true})
				must(err)
				snap.Release()
			}
		}},
		{"hv.fork", 1, func(b *testing.B) {
			var env *hv.Env
			var snap *hv.Snapshot
			for i := 0; i < b.N; i++ {
				if i%forkBatch == 0 {
					b.StopTimer()
					var vm hv.VM
					var err error
					env, vm = template("arm", 1)
					snap, err = hv.CaptureSnapshot(env, vm, hv.SnapshotOptions{KeepPaused: true})
					must(err)
					b.StartTimer()
				}
				_, err := hv.Fork(env, snap, hv.ForkOptions{ConfigureVCPU: interpFor})
				must(err)
			}
		}},
		// Full-copy migrations of a parked guest back and forth between two
		// environments, per dataset page moved.
		{"hv.migrate_page", churnPages, func(b *testing.B) {
			be, err := lookup("arm")
			must(err)
			var src, dst *hv.Env
			var vm hv.VM
			for i := 0; i < b.N; i++ {
				if i%forkBatch == 0 {
					b.StopTimer()
					src, vm = template("arm", 1)
					dst, err = be.NewEnv(1)
					must(err)
					b.StartTimer()
				}
				dvm, err := dst.HV.CreateVM(churnGuestBytes)
				must(err)
				_, err = hv.Migrate(src, vm, dst, dvm, hv.MigrateOptions{ConfigureVCPU: interpFor})
				must(err)
				src, dst, vm = dst, src, dvm
			}
		}},
		{"fleet.fork", 1, func(b *testing.B) {
			var fl *fleet.Fleet
			for i := 0; i < b.N; i++ {
				if i%forkBatch == 0 {
					b.StopTimer()
					env, vm := template("arm", 2)
					var err error
					fl, err = fleet.New(env, vm, fleet.Options{ConfigureVCPU: interpFor, Snapshot: hv.SnapshotOptions{KeepPaused: true}})
					must(err)
					b.StartTimer()
				}
				_, err := fl.Fork()
				must(err)
			}
		}},
		{"fleet.supervise", 1, func(b *testing.B) {
			env, vm := template("arm", 2)
			fl, err := fleet.New(env, vm, fleet.Options{ConfigureVCPU: interpFor, StallBudget: 1 << 40})
			must(err)
			_, err = fl.ForkN(50)
			must(err)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recs, err := fl.Supervise() // 50 healthy clones: a pure health check
				must(err)
				sink += uint64(len(recs))
			}
		}},
		{"trace.emit_on", 1, func(b *testing.B) {
			t := trace.New(0)
			for i := 0; i < b.N; i++ {
				t.Emit(trace.Event{Kind: trace.ExitHypercall, VM: 1, Cycles: 100})
			}
		}},
		{"trace.emit_off", 1, func(b *testing.B) {
			var t *trace.Tracer
			for i := 0; i < b.N; i++ {
				t.Emit(trace.Event{Kind: trace.ExitHypercall, VM: 1, Cycles: 100})
			}
		}},
	}
	// One hypercall round trip per backend family, from an HVC-loop guest.
	for _, name := range []string{"core.exit", "vhe.exit", "kvmx86.exit"} {
		backend := exitProbeBackends[name]
		ps = append(ps, probe{name, 1, func(b *testing.B) {
			be, err := lookup(backend)
			must(err)
			env, err := be.NewEnv(1)
			must(err)
			_, _, err = bootRaw(env, rawGuest{memBytes: 16 << 20, cpsr: cpsrMasked,
				images: []image{{guestCode, stormLoop(b.N, stormOps["hypercall"])}}})
			must(err)
			b.ResetTimer()
			if !env.Board.Run(uint64(b.N)*64+1_000_000, func() bool { return env.Host.LiveCount() == 0 }) {
				panic("hypercall loop did not finish")
			}
		}})
	}
	return ps
}

// stage2Table maps probePages pages identity, writable, in a Stage-2 table.
func stage2Table() (*mmu.Builder, *mem.Physical, *bump) {
	ram := mem.New(machine.RAMBase, probeRAM)
	// The mapped pages occupy the bottom of RAM; tables and copies come
	// from above them.
	base := uint64(machine.RAMBase + probePages*mmu.PageSize)
	pool := &bump{ram: ram, base: base, next: base, end: machine.RAMBase + probeRAM}
	t, err := mmu.NewBuilder(mmu.TableStage2, ram, pool)
	must(err)
	for p := uint32(0); p < probePages; p++ {
		a := machine.RAMBase + p*mmu.PageSize
		must(t.MapPage(a, uint64(a), mmu.MapFlags{W: true}))
	}
	return t, ram, pool
}

// twoStage is an MMU and a context translating probePages pages through a
// kernel-format Stage-1 table and a Stage-2 table, both identity.
func twoStage() (*mmu.MMU, *mmu.Context) {
	s2, ram, pool := stage2Table()
	s1, err := mmu.NewBuilder(mmu.TableKernel, ram, pool)
	must(err)
	for p := uint32(0); p < probePages; p++ {
		a := machine.RAMBase + p*mmu.PageSize
		must(s1.MapPage(a, uint64(a), mmu.MapFlags{W: true}))
	}
	// Stage-1 table pages are themselves guest-physical: map them too.
	for pa := pool.base; pa < pool.next+64*mmu.PageSize; pa += mmu.PageSize {
		must(s2.MapPage(uint32(pa), pa, mmu.MapFlags{W: true}))
	}
	return mmu.New(ram, 25), &mmu.Context{
		S1Enabled: true, Format: mmu.FormatKernel, TTBR0: s1.Root, ASID: 1,
		S2Enabled: true, VTTBR: s2.Root, VMID: 1,
	}
}

// hostSwitch is a switch with n host ports whose addresses it has learned.
func hostSwitch(n int) (*net.Switch, []*net.Port) {
	sw := net.NewSwitch()
	var ports []*net.Port
	for i := 0; i < n; i++ {
		p, err := sw.AttachHost(fmt.Sprint("p", i), func(f []byte) { sink += uint64(len(f)) })
		must(err)
		ports = append(ports, p)
	}
	for _, p := range ports {
		p.Inject(net.MakeFrame(net.Broadcast, p.MAC, 0, 0, nil)) // learn every source
	}
	return sw, ports
}
