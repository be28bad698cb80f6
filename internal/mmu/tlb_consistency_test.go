package mmu

import (
	"math/rand"
	"testing"
)

// checkTLBInvariant asserts the structural invariants of the slot-array
// TLB: the FIFO links run head to tail through resident slots only, with
// matching back links and no duplicate key; the index files exactly the
// resident slots, each where a probe for its key finds it, at most half
// full; every other slot is on the free list; and no more than the
// capacity is resident. Every mutation of the TLB must preserve these or
// lookups miss live entries and eviction picks wrong victims.
func checkTLBInvariant(t *testing.T, m *MMU) {
	t.Helper()
	tl := &m.tlb
	prev, count := int32(0), 0
	for s := tl.head; s != 0; s = tl.slots[s-1].next {
		sl := tl.slots[s-1]
		if sl.key == freeKey {
			t.Fatalf("invariant violated: free slot %d linked in the FIFO order", s-1)
		}
		if sl.prev != prev {
			t.Fatalf("invariant violated: slot %d prev=%d, want %d", s-1, sl.prev, prev)
		}
		// With every linked slot found at itself, no key is linked twice.
		if got := tl.find(sl.key); got != s {
			t.Fatalf("invariant violated: index finds key %#x at slot+1 %d, linked at %d", uint64(sl.key), got, s)
		}
		prev = s
		count++
		if count > len(tl.slots) {
			t.Fatal("invariant violated: FIFO links form a cycle")
		}
	}
	if tl.tail != prev {
		t.Fatalf("invariant violated: tail=%d, last linked slot+1 %d", tl.tail, prev)
	}
	if count != tl.n {
		t.Fatalf("invariant violated: %d slots linked, n=%d", count, tl.n)
	}
	filed := 0
	for _, s := range tl.index {
		if s == 0 {
			continue
		}
		filed++
		if k := tl.slots[s-1].key; k == freeKey || tl.find(k) != s {
			t.Fatalf("invariant violated: index files slot %d, which is not resident or not found", s-1)
		}
	}
	if filed != tl.n {
		t.Fatalf("invariant violated: index files %d slots, n=%d", filed, tl.n)
	}
	if 2*tl.n > len(tl.index) {
		t.Fatalf("invariant violated: index of %d buckets holds %d keys", len(tl.index), tl.n)
	}
	free := 0
	for s := tl.free; s != 0; s = tl.slots[s-1].next {
		if tl.slots[s-1].key != freeKey {
			t.Fatalf("invariant violated: resident slot %d on the free list", s-1)
		}
		free++
		if free > len(tl.slots) {
			t.Fatal("invariant violated: free list forms a cycle")
		}
	}
	if free+tl.n != len(tl.slots) {
		t.Fatalf("invariant violated: %d free + %d resident != %d slots", free, tl.n, len(tl.slots))
	}
	capacity := m.TLBCapacity
	if capacity <= 0 {
		capacity = 512
	}
	if tl.n > capacity {
		t.Fatalf("invariant violated: %d entries resident, capacity %d", tl.n, capacity)
	}
}

// TestReinsertAtCapacityDoesNotEvict is the regression test for the FIFO
// eviction bug: inserting a key that is already resident while the TLB is
// full must replace in place, not evict an unrelated live entry (and must
// not link a duplicate slot).
func TestReinsertAtCapacityDoesNotEvict(t *testing.T) {
	_, _, m := setup(t)
	m.TLBCapacity = 4
	keys := make([]tlbKey, 4)
	for i := range keys {
		keys[i] = makeKey(uint32(i), 1, 0, true)
		m.insert(keys[i], tlbEntry{paPage: uint64(i)})
	}
	checkTLBInvariant(t, m)

	// Re-insert the newest key (e.g. a walk refilling the same page after
	// a permissions change) with the TLB at capacity.
	m.insert(keys[3], tlbEntry{paPage: 99})
	checkTLBInvariant(t, m)

	if m.tlb.n != 4 {
		t.Fatalf("TLB shrank to %d entries after re-insert", m.tlb.n)
	}
	for i, k := range keys {
		if m.tlb.find(k) == 0 {
			t.Fatalf("re-insert evicted live entry %d", i)
		}
	}
	if m.tlb.slots[m.tlb.find(keys[3])-1].e.paPage != 99 {
		t.Fatal("re-insert did not update the entry")
	}
}

// TestTLBHitPermFaultCountsAsHit is the regression test for the stats bug:
// a TLB hit that faults on permissions must count as a hit (and as a
// permission fault), so Hits+Misses always equals the translation count.
func TestTLBHitPermFaultCountsAsHit(t *testing.T) {
	ram, p, m := setup(t)
	b, _ := NewBuilder(TableKernel, ram, p)
	_ = b.MapPage(0x1000, ramBase+0x5000, MapFlags{W: false})
	ctx := &Context{S1Enabled: true, TTBR0: b.Root}

	if _, f := m.Translate(ctx, 0x1000, Load); f != nil { // miss + fill
		t.Fatal(f)
	}
	if _, f := m.Translate(ctx, 0x1000, Store); f == nil || f.Kind != FaultPermission {
		t.Fatalf("store to read-only page: fault=%v, want permission", f)
	}
	st := m.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = {Hits:%d Misses:%d}, want {1 1}: the faulting hit vanished", st.Hits, st.Misses)
	}
	if st.PermFaults != 1 {
		t.Fatalf("PermFaults = %d, want 1", st.PermFaults)
	}
	if st.Hits+st.Misses != 2 {
		t.Fatalf("Hits+Misses = %d, want 2 translations", st.Hits+st.Misses)
	}
}

// TestStatsSumUnderMixedFaults drives translations across hit/miss/fault
// combinations and asserts the Hits+Misses == translations invariant.
func TestStatsSumUnderMixedFaults(t *testing.T) {
	ram, p, m := setup(t)
	b, _ := NewBuilder(TableKernel, ram, p)
	_ = b.MapPage(0x1000, ramBase+0x5000, MapFlags{W: false, U: false, XN: true})
	_ = b.MapPage(0x2000, ramBase+0x6000, MapFlags{W: true, U: true})
	ctx := &Context{S1Enabled: true, TTBR0: b.Root}
	uctx := *ctx
	uctx.User = true

	total := uint64(0)
	tr := func(c *Context, va uint32, at AccessType) {
		m.Translate(c, va, at)
		total++
	}
	tr(ctx, 0x1000, Load)      // miss, ok
	tr(ctx, 0x1000, Store)     // hit, perm fault
	tr(ctx, 0x1000, Fetch)     // hit, perm fault (XN)
	tr(&uctx, 0x1000, Load)    // hit, perm fault (user)
	tr(ctx, 0x2000, Store)     // miss, ok
	tr(ctx, 0x2000, Load)      // hit, ok
	tr(ctx, 0xDEAD_0000, Load) // miss, translation fault
	tr(ctx, 0x1000, Load)      // hit, ok

	st := m.Stats()
	if st.Hits+st.Misses != total {
		t.Fatalf("Hits(%d)+Misses(%d) = %d, want %d translations",
			st.Hits, st.Misses, st.Hits+st.Misses, total)
	}
	if st.PermFaults != 3 {
		t.Fatalf("PermFaults = %d, want 3", st.PermFaults)
	}
}

// TestFlushInsertFuzz runs a deterministic randomized sequence of inserts
// and flushes of every scope, checking the structural invariant after every
// mutation.
func TestFlushInsertFuzz(t *testing.T) {
	_, _, m := setup(t)
	m.TLBCapacity = 32
	rng := rand.New(rand.NewSource(42))

	randKey := func() tlbKey {
		return makeKey(uint32(rng.Intn(64)), uint8(rng.Intn(4)), uint8(rng.Intn(4)), rng.Intn(2) == 0)
	}
	for i := 0; i < 10000; i++ {
		switch rng.Intn(11) {
		case 0:
			m.FlushAll()
		case 1:
			m.FlushASID(uint8(rng.Intn(4)), uint8(rng.Intn(4)))
		case 2:
			m.FlushVMID(uint8(rng.Intn(4)))
		case 3:
			m.FlushS2Page(uint8(rng.Intn(4)), uint64(rng.Intn(16))<<PageShift)
		default:
			m.insert(randKey(), tlbEntry{paPage: uint64(rng.Intn(1 << 20)), ipaPage: uint64(rng.Intn(16))})
		}
		checkTLBInvariant(t, m)
		if m.tlb.n > 32 {
			t.Fatalf("op %d: TLB grew past capacity: %d", i, m.tlb.n)
		}
	}
}

// TestTranslateFuzzStatsInvariant drives end-to-end translations (mapped,
// unmapped, and permission-faulting pages, with interleaved flushes) and
// asserts the stats invariant continuously.
func TestTranslateFuzzStatsInvariant(t *testing.T) {
	ram, p, m := setup(t)
	m.TLBCapacity = 8
	b, _ := NewBuilder(TableKernel, ram, p)
	// 16 pages: even pages writable, odd pages read-only+XN; pages >= 16
	// unmapped.
	for i := uint32(0); i < 16; i++ {
		flags := MapFlags{W: i%2 == 0, U: i%4 == 0}
		flags.XN = i%2 == 1
		_ = b.MapPage(i*PageSize, ramBase+uint64(i)*PageSize, flags)
	}
	ctx := &Context{S1Enabled: true, TTBR0: b.Root}
	uctx := *ctx
	uctx.User = true
	ats := []AccessType{Load, Store, Fetch}

	rng := rand.New(rand.NewSource(7))
	var total uint64
	for i := 0; i < 5000; i++ {
		if rng.Intn(50) == 0 {
			m.FlushAll()
			checkTLBInvariant(t, m)
		}
		c := ctx
		if rng.Intn(3) == 0 {
			c = &uctx
		}
		va := uint32(rng.Intn(24)) * PageSize // 1/3 unmapped
		m.Translate(c, va, ats[rng.Intn(len(ats))])
		total++
		checkTLBInvariant(t, m)
		st := m.Stats()
		if st.Hits+st.Misses != total {
			t.Fatalf("op %d: Hits(%d)+Misses(%d) != %d translations",
				i, st.Hits, st.Misses, total)
		}
	}
	if st := m.Stats(); st.PermFaults == 0 {
		t.Fatal("fuzz never produced a permission fault; widen the input space")
	}
}

// nopCode is a CodeInvalidator that does nothing (and allocates nothing).
type nopCode struct{}

func (nopCode) InvalidatePhysPage(uint64) {}
func (nopCode) InvalidateAll()            {}

// twoStageTLB fills a default-capacity TLB with pages translations through
// identity Stage-1 and Stage-2 tables under VMID 1.
func twoStageTLB(t *testing.T, pages uint32) (*MMU, *Context) {
	t.Helper()
	ram, p, m := setup(t)
	s2, _ := NewBuilder(TableStage2, ram, p)
	if err := s2.MapRange(0, ramBase, 16<<20, MapFlags{W: true}); err != nil {
		t.Fatal(err)
	}
	s1, _ := NewBuilder(TableKernel, shiftMem{ram, ramBase}, &pool{next: 4 << 20})
	for i := uint32(0); i < pages; i++ {
		if err := s1.MapPage(i*PageSize, uint64(i)*PageSize, MapFlags{W: true}); err != nil {
			t.Fatal(err)
		}
	}
	m.Code = nopCode{}
	ctx := &Context{S1Enabled: true, TTBR0: s1.Root, S2Enabled: true, VTTBR: s2.Root, VMID: 1, ASID: 2}
	for i := uint32(0); i < pages; i++ {
		if _, f := m.Translate(ctx, i*PageSize, Load); f != nil {
			t.Fatal(f)
		}
	}
	return m, ctx
}

// TestTLBHitAllocsNothing pins that a TLB hit makes no heap allocation.
func TestTLBHitAllocsNothing(t *testing.T) {
	m, ctx := twoStageTLB(t, 512)
	va := uint32(0)
	allocs := testing.AllocsPerRun(1000, func() {
		if r, f := m.Translate(ctx, va, Load); f != nil || !r.TLBHit {
			t.Fatalf("translate %#x: %+v %v, want a hit", va, r, f)
		}
		va = (va + PageSize) % (512 * PageSize)
	})
	if allocs != 0 {
		t.Fatalf("TLB hit allocates %.1f times, want 0", allocs)
	}
}

// TestFlushS2PageAllocsNothing pins that a per-IPA flush of a full TLB —
// and the refill after it — makes no heap allocation.
func TestFlushS2PageAllocsNothing(t *testing.T) {
	m, ctx := twoStageTLB(t, 512)
	page := uint32(0)
	allocs := testing.AllocsPerRun(1000, func() {
		m.FlushS2Page(ctx.VMID, uint64(page)*PageSize)
		if r, f := m.Translate(ctx, page*PageSize, Load); f != nil || r.TLBHit {
			t.Fatalf("translate after flush: %+v %v, want a miss", r, f)
		}
		page = (page + 1) % 512
	})
	if allocs != 0 {
		t.Fatalf("FlushS2Page allocates %.1f times, want 0", allocs)
	}
	checkTLBInvariant(t, m)
}
