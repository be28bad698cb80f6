package hv

import (
	"errors"
	"testing"

	"kvmarm/internal/arm"
	"kvmarm/internal/gic"
	"kvmarm/internal/kernel"
	"kvmarm/internal/machine"
	"kvmarm/internal/mmu"
)

// White-box tests of the backend kit's shared paths, on a bare board with
// an unbooted host kernel (allocator and cost table only) and a backend
// that does nothing: every charge, flush and table change below is the
// kit's own.

type kitVM struct{ VMCore }

func (vm *kitVM) CreateVCPU(int) (VCPU, error)       { return nil, errors.New("unused") }
func (vm *kitVM) NewGuestOS(uint64) (GuestOS, error) { return nil, errors.New("unused") }
func (vm *kitVM) Family() string                     { return "kit" }
func (vm *kitVM) SaveIC() *ICState                   { return &ICState{} }
func (vm *kitVM) RestoreIC(*ICState) error           { return nil }
func (vm *kitVM) PendingIRQ(int) bool                { return false }
func (vm *kitVM) InjectTimer(fromHostCPU, vcpu int)  {}
func (vm *kitVM) InjectSPI(irq int, level bool)      {}
func (v *kitVCPU) EnterGuest(*arm.CPU)               {}

type kitVCPU struct {
	VCPUCore
	regs GuestRegs
}

const kitPage = machine.RAMBase + 1<<20

// newKit builds a 2-CPU board, a host with allocBytes of page frames, and
// one VM with a vCPU.
func newKit(t testing.TB, allocBytes uint64) (*Base, *kitVM, *kitVCPU) {
	t.Helper()
	b, err := machine.New(machine.Config{CPUs: 2, RAMBytes: 16 << 20, HasVGIC: true, HasVirtTimer: true})
	if err != nil {
		t.Fatal(err)
	}
	host := kernel.New(kernel.Config{
		Name: "host", NumCPUs: 2,
		CPU:       func(i int) *arm.CPU { return b.CPUs[i] },
		Mem:       b.RAM,
		AllocBase: machine.RAMBase + (8 << 20), AllocSize: allocBytes,
	})
	base := &Base{}
	base.Init(b, host)
	vm := &kitVM{}
	vm.IdleState = "idle"
	if err := base.InitVM(&vm.VMCore, 4<<20); err != nil {
		t.Fatal(err)
	}
	if err := vm.BringUp(vm, vm); err != nil {
		t.Fatal(err)
	}
	v := &kitVCPU{}
	if err := vm.InitVCPU(&v.VCPUCore, v, &v.regs, 0); err != nil {
		t.Fatal(err)
	}
	return base, vm, v
}

// primeTLB caches a translation of ipa through vm's table on every CPU.
func primeTLB(b *Base, vm *kitVM, ipa uint64) {
	for _, c := range b.Board.CPUs {
		tlbCached(c, vm, ipa)
	}
}

// tlbCached reports whether a load of ipa hits c's TLB (a miss walks the
// table and caches the translation).
func tlbCached(c *arm.CPU, vm *kitVM, ipa uint64) bool {
	ctx := &mmu.Context{S2Enabled: true, VTTBR: vm.Mem.Table.Root, VMID: vm.VMID}
	r, f := c.MMU.Translate(ctx, uint32(ipa), mmu.Load)
	return f == nil && r.TLBHit
}

// flushRecorder stands in for the block cache on one CPU's MMU: a
// page-granular TLB flush reports each evicted frame to it, which lets a
// test see when, on the charging CPU's clock, the flush happened.
type flushRecorder struct {
	clock *uint64
	pages []uint64
	at    []uint64
}

func (r *flushRecorder) InvalidatePhysPage(paPage uint64) {
	r.pages = append(r.pages, paPage)
	r.at = append(r.at, *r.clock)
}
func (r *flushRecorder) InvalidateAll() {}

func recordFlushes(b *Base, charged *arm.CPU) []*flushRecorder {
	var recs []*flushRecorder
	for _, c := range b.Board.CPUs {
		r := &flushRecorder{clock: &charged.Clock}
		c.MMU.Code = r
		recs = append(recs, r)
	}
	return recs
}

func lookup(t *testing.T, vm *kitVM, ipa uint64) (uint64, bool) {
	t.Helper()
	pa, ok, err := vm.Mem.Table.Lookup(uint32(ipa))
	if err != nil {
		t.Fatal(err)
	}
	return pa, ok
}

// checkFlushedExactly asserts the resolver flushed page — and only it — on
// every CPU, before it charged c.
func checkFlushedExactly(t *testing.T, b *Base, vm *kitVM, recs []*flushRecorder, flushesBefore []uint64, clockBefore uint64, page, neighbour, oldPA uint64) {
	t.Helper()
	for i, c := range b.Board.CPUs {
		if got := c.MMU.Stats().Flushes - flushesBefore[i]; got != 1 {
			t.Errorf("cpu %d: %d TLB flushes, want exactly 1", i, got)
		}
		r := recs[i]
		if len(r.pages) != 1 || r.pages[0] != oldPA>>mmu.PageShift {
			t.Errorf("cpu %d: flush evicted frames %#x, want just %#x", i, r.pages, oldPA>>mmu.PageShift)
		} else if r.at[0] != clockBefore {
			t.Errorf("cpu %d: flushed at clock %d, want %d (before the charge)", i, r.at[0], clockBefore)
		}
		if !tlbCached(c, vm, neighbour) {
			t.Errorf("cpu %d: the neighbouring page's TLB entry was flushed too", i)
		}
		if tlbCached(c, vm, page) {
			t.Errorf("cpu %d: stale TLB entry for the faulting page survived", i)
		}
	}
}

func flushCounts(b *Base) []uint64 {
	var out []uint64
	for _, c := range b.Board.CPUs {
		out = append(out, c.MMU.Stats().Flushes)
	}
	return out
}

func TestResolveRAMFaultFreshPage(t *testing.T) {
	b, vm, _ := newKit(t, 4<<20)
	c := b.Board.CPUs[0]
	cost := b.Host.Cost
	flushes, clock := flushCounts(b), c.Clock
	if err := vm.ResolveRAMFault(c, kitPage+0x123); err != nil {
		t.Fatal(err)
	}
	if _, ok := lookup(t, vm, kitPage); !ok {
		t.Fatal("fresh page not mapped")
	}
	if got, want := c.Clock-clock, cost.FaultWork+cost.PageZero; got != want {
		t.Errorf("charged %d cycles, want FaultWork+PageZero = %d", got, want)
	}
	if vm.Stats.Stage2Faults != 1 {
		t.Errorf("Stage2Faults = %d, want 1", vm.Stats.Stage2Faults)
	}
	// invalid → valid: no TLB can hold a stale entry, nothing to flush.
	for i, n := range flushCounts(b) {
		if n != flushes[i] {
			t.Errorf("cpu %d: fresh mapping flushed the TLB", i)
		}
	}
}

func TestResolveRAMFaultLoggedPage(t *testing.T) {
	b, vm, _ := newKit(t, 4<<20)
	c := b.Board.CPUs[1]
	neighbour := uint64(kitPage + mmu.PageSize)
	pa, err := vm.EnsureMapped(kitPage)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.EnsureMapped(neighbour); err != nil {
		t.Fatal(err)
	}
	if n, err := vm.StartDirtyLog(); err != nil || n != 2 {
		t.Fatalf("StartDirtyLog = %d, %v; want 2 pages", n, err)
	}
	primeTLB(b, vm, kitPage)
	primeTLB(b, vm, neighbour)
	recs := recordFlushes(b, c)
	flushes, clock := flushCounts(b), c.Clock

	if err := vm.ResolveRAMFault(c, kitPage+8); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Clock-clock, b.Host.Cost.FaultWork/2; got != want {
		t.Errorf("charged %d cycles, want FaultWork/2 = %d", got, want)
	}
	if now, ok := lookup(t, vm, kitPage); !ok || now != pa {
		t.Errorf("logged page remapped: %#x -> %#x (the log must win over allocation)", pa, now)
	}
	checkFlushedExactly(t, b, vm, recs, flushes, clock, kitPage, neighbour, pa)
	dirty, err := vm.FetchDirtyLog()
	if err != nil || len(dirty) != 1 || dirty[0] != kitPage {
		t.Errorf("dirty set = %#x, %v; want just %#x", dirty, err, uint64(kitPage))
	}
}

func TestResolveRAMFaultCowBreakWhileLogging(t *testing.T) {
	b, vm, _ := newKit(t, 4<<20)
	c := b.Board.CPUs[0]
	neighbour := uint64(kitPage + mmu.PageSize)
	if err := vm.WriteGuestMem(kitPage, []byte{0xC0}); err != nil {
		t.Fatal(err)
	}
	if _, err := vm.EnsureMapped(neighbour); err != nil {
		t.Fatal(err)
	}
	pool := mmu.NewCowPool()
	if _, err := vm.Mem.FreezeCowShared(pool); err != nil {
		t.Fatal(err)
	}
	shared, _ := lookup(t, vm, kitPage)
	pool.Retain(shared) // a second sharer (the snapshot), so the break copies
	if _, err := vm.StartDirtyLog(); err != nil {
		t.Fatal(err)
	}
	primeTLB(b, vm, kitPage)
	primeTLB(b, vm, neighbour)
	recs := recordFlushes(b, c)
	flushes, clock := flushCounts(b), c.Clock

	if err := vm.ResolveRAMFault(c, kitPage); err != nil {
		t.Fatal(err)
	}
	cost := b.Host.Cost
	if got, want := c.Clock-clock, cost.FaultWork/2+cost.PageZero; got != want {
		t.Errorf("charged %d cycles, want FaultWork/2+PageZero = %d", got, want)
	}
	private, ok := lookup(t, vm, kitPage)
	if !ok || private == shared {
		t.Errorf("page still on the shared frame %#x after the break", shared)
	}
	if got, err := vm.ReadGuestMem(kitPage, 1); err != nil || got[0] != 0xC0 {
		t.Errorf("private copy lost the page contents: %v %v", got, err)
	}
	checkFlushedExactly(t, b, vm, recs, flushes, clock, kitPage, neighbour, shared)
	dirty, err := vm.FetchDirtyLog()
	if err != nil || len(dirty) != 1 || dirty[0] != kitPage {
		t.Errorf("dirty set = %#x, %v; want the broken page %#x", dirty, err, uint64(kitPage))
	}
}

// failingMem makes every table access fail once armed: an injected fault
// in the walk underneath DirtyFault.
type failingMem struct {
	mmu.PhysWriter
	armed bool
}

var errInjectedWalk = errors.New("injected table-walk fault")

func (m *failingMem) Read64(pa uint64) (uint64, error) {
	if m.armed {
		return 0, errInjectedWalk
	}
	return m.PhysWriter.Read64(pa)
}

func TestResolveRAMFaultErrorsNeverPanicOrCharge(t *testing.T) {
	t.Run("allocator exhausted", func(t *testing.T) {
		b, vm, _ := newKit(t, 256<<10)
		for {
			if _, err := b.Host.Alloc.AllocPages(1); err != nil {
				break
			}
		}
		c := b.Board.CPUs[0]
		clock := c.Clock
		if err := vm.ResolveRAMFault(c, kitPage); err == nil {
			t.Fatal("fault resolved with no frames left")
		}
		if _, ok := lookup(t, vm, kitPage); ok || c.Clock != clock {
			t.Error("failed resolution mapped the page or charged the CPU")
		}
	})
	t.Run("table walk fault", func(t *testing.T) {
		b, vm, _ := newKit(t, 4<<20)
		if _, err := vm.EnsureMapped(kitPage); err != nil {
			t.Fatal(err)
		}
		if _, err := vm.StartDirtyLog(); err != nil {
			t.Fatal(err)
		}
		vm.Mem.Table.Mem = &failingMem{PhysWriter: vm.Mem.Table.Mem, armed: true}
		c := b.Board.CPUs[0]
		clock := c.Clock
		if err := vm.ResolveRAMFault(c, kitPage); !errors.Is(err, errInjectedWalk) {
			t.Fatalf("err = %v, want the injected walk fault", err)
		}
		if c.Clock != clock {
			t.Error("failed resolution charged the CPU")
		}
	})
}

// TestResolveRAMFaultRejectsHighIPA: a RAM slot may sit above 4 GiB, but
// the table maps 32-bit IPAs. A guest fault there used to truncate the
// address and remap the aliased low page to a blank frame.
func TestResolveRAMFaultRejectsHighIPA(t *testing.T) {
	b, vm, _ := newKit(t, 4<<20)
	const high = 1 << 32
	if err := vm.SetUserMemoryRegion(high+machine.RAMBase, 4<<20); err != nil {
		t.Fatal(err)
	}
	if err := vm.WriteGuestMem(kitPage, []byte{0xAB}); err != nil {
		t.Fatal(err)
	}
	low, _ := lookup(t, vm, kitPage)
	c := b.Board.CPUs[0]
	clock := c.Clock
	if !vm.Mem.InSlot(high + kitPage) {
		t.Fatal("test slot not registered")
	}
	if err := vm.ResolveRAMFault(c, high+kitPage); err == nil {
		t.Fatal("fault on an IPA beyond the table's reach must fail (the caller shuts the vCPU down)")
	}
	if now, ok := lookup(t, vm, kitPage); !ok || now != low {
		t.Errorf("aliased low page remapped %#x -> %#x", low, now)
	}
	if got, err := vm.ReadGuestMem(kitPage, 1); err != nil || got[0] != 0xAB {
		t.Errorf("aliased low page contents clobbered: %v %v", got, err)
	}
	if c.Clock != clock {
		t.Error("rejected fault charged the CPU")
	}
	if _, err := vm.EnsureMapped(high + kitPage); err == nil {
		t.Error("EnsureMapped must reject the same IPA")
	}
}

// The two shared paths that sit on the benchmark's exit-heavy workloads
// must stay allocation-free: sharing them may not leak a closure or a
// boxed value into every dirty-log fault or MMIO exit.

func TestDirtyLogFaultDoesNotAllocate(t *testing.T) {
	b, vm, _ := newKit(t, 4<<20)
	c := b.Board.CPUs[0]
	if _, err := vm.EnsureMapped(kitPage); err != nil {
		t.Fatal(err)
	}
	if _, err := vm.StartDirtyLog(); err != nil {
		t.Fatal(err)
	}
	// Every run after the first takes the stale-TLB flavour of the leg
	// (page already dirty): same code path, same flush, same charge.
	if n := testing.AllocsPerRun(100, func() {
		if err := vm.ResolveRAMFault(c, kitPage); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("dirty-log fault allocates %.1f times per fault, want 0", n)
	}
}

type kitDev struct{ last uint64 }

func (d *kitDev) Name() string                              { return "kit-dev" }
func (d *kitDev) Read(VCPU, uint64, int) uint64             { return d.last + 1 }
func (d *kitDev) Write(_ VCPU, _ uint64, _ int, val uint64) { d.last = val }

func TestRegionAccess(t *testing.T) {
	b, vm, v := newKit(t, 4<<20)
	c := b.Board.CPUs[0]
	const kern, user, userCost, kernCost = 0x1D10_0000, 0x1D20_0000, 4400, 620
	kd, ud := &kitDev{}, &kitDev{}
	vm.AddKernelMMIO(kern, 0x1000, kd)
	vm.AddUserMMIO(user, 0x1000, ud)

	clock := c.Clock
	if _, ok := v.RegionAccess(c, kern+4, true, 4, 41, userCost, kernCost); !ok || kd.last != 41 {
		t.Errorf("kernel-region write: ok=%v latched %d", ok, kd.last)
	}
	if val, ok := v.RegionAccess(c, kern+4, false, 4, 0, userCost, kernCost); !ok || val != 42 {
		t.Errorf("kernel-region read = %d, %v; want 42", val, ok)
	}
	if got := c.Clock - clock; got != 2*kernCost || vm.Stats.MMIOUserExits != 0 {
		t.Errorf("two kernel accesses charged %d (want %d), user exits %d", got, 2*kernCost, vm.Stats.MMIOUserExits)
	}
	clock = c.Clock
	if val, ok := v.RegionAccess(c, user, false, 4, 0, userCost, kernCost); !ok || val != 1 {
		t.Errorf("user-region read = %d, %v; want 1", val, ok)
	}
	if got := c.Clock - clock; got != userCost || vm.Stats.MMIOUserExits != 1 {
		t.Errorf("user access charged %d (want %d), user exits %d", got, userCost, vm.Stats.MMIOUserExits)
	}
	// Unbacked: reads as zero, writes ignored, nothing charged.
	clock = c.Clock
	if val, ok := v.RegionAccess(c, 0x1D30_0000, false, 4, 0, userCost, kernCost); !ok || val != 0 || c.Clock != clock {
		t.Errorf("unbacked read = %d, %v, charged %d", val, ok, c.Clock-clock)
	}

	if n := testing.AllocsPerRun(100, func() {
		v.RegionAccess(c, kern, true, 4, 7, userCost, kernCost)
		v.RegionAccess(c, user, false, 4, 0, userCost, kernCost)
	}); n != 0 {
		t.Errorf("MMIO region dispatch allocates %.1f times per pair of accesses, want 0", n)
	}
}

type kitBadDev struct{ kitDev }

func (d *kitBadDev) ReadErr(VCPU, uint64, int) (uint64, error) { return 0, errors.New("device error") }
func (d *kitBadDev) WriteErr(VCPU, uint64, int, uint64) error  { return errors.New("device error") }

func TestRegionAccessBusError(t *testing.T) {
	b, vm, v := newKit(t, 4<<20)
	vm.AddUserMMIO(0x1D20_0000, 0x1000, &kitBadDev{})
	if _, ok := v.RegionAccess(b.Board.CPUs[0], 0x1D20_0000, false, 4, 0, 1, 1); ok {
		t.Fatal("device error not reported")
	}
	if vm.Stats.BusErrors != 1 || v.State() != "shutdown" {
		t.Errorf("bus errors = %d, vCPU %s; want 1, shutdown", vm.Stats.BusErrors, v.State())
	}
}

// TestVCPULimit: interrupt models route by one-byte vCPU masks, so a VM
// takes gic.MaxCPUs vCPUs and refuses the next.
func TestVCPULimit(t *testing.T) {
	_, vm, _ := newKit(t, 1<<20)
	for id := 1; id <= gic.MaxCPUs; id++ {
		v := &kitVCPU{}
		err := vm.InitVCPU(&v.VCPUCore, v, &v.regs, id)
		if id < gic.MaxCPUs && err != nil {
			t.Fatalf("vCPU %d: %v", id, err)
		}
		if id == gic.MaxCPUs && err == nil {
			t.Fatalf("vCPU %d accepted beyond the %d-vCPU limit", id, gic.MaxCPUs)
		}
	}
}
