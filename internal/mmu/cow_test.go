package mmu

import (
	"errors"
	"testing"

	"kvmarm/internal/mem"
)

// cowSetup builds a template Stage-2 table with n writable pages mapped
// from IPA 0, each page's first word stamped with its index, plus the MMU
// to drive faults through.
func cowSetup(t *testing.T, n int) (*Builder, *MMU, *Context, *pool) {
	t.Helper()
	ram, p, m := setup(t)
	s2, err := NewBuilder(TableStage2, ram, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		pa, _ := p.AllocPages(1)
		if err := s2.MapPage(uint32(i)*PageSize, pa, MapFlags{W: true}); err != nil {
			t.Fatal(err)
		}
		if err := ram.Write64(pa, uint64(0x1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	return s2, m, &Context{S2Enabled: true, VTTBR: s2.Root, VMID: 7}, p
}

// cloneTable builds an empty Stage-2 table adopting every frozen page of
// template, with its own VMID.
func cloneTable(t *testing.T, template *Builder, pool *CowPool, p *pool, m *MMU, vmid uint8) (*Builder, *Context) {
	t.Helper()
	c, err := NewBuilder(TableStage2, template.Mem, p)
	if err != nil {
		t.Fatal(err)
	}
	for page, pa := range template.cow {
		if err := c.AdoptCowPage(pool, page, pa); err != nil {
			t.Fatal(err)
		}
	}
	_ = m
	return c, &Context{S2Enabled: true, VTTBR: c.Root, VMID: vmid}
}

func TestCowFreezeProtectsAndSharesFrames(t *testing.T) {
	s2, m, ctx, p := cowSetup(t, 4)
	pool := NewCowPool()
	all := func(ipa uint64) bool { return true }
	n, err := s2.FreezeCow(pool, all)
	if err != nil || n != 4 {
		t.Fatalf("FreezeCow = %d, %v, want 4", n, err)
	}
	if !s2.CowSharing() || s2.CowSharedPages() != 4 || pool.SharedFrames() != 4 {
		t.Fatalf("sharing state: shared=%d frames=%d", s2.CowSharedPages(), pool.SharedFrames())
	}
	m.FlushVMID(ctx.VMID)

	// Loads still work; stores take a Stage-2 permission fault.
	if _, f := m.Translate(ctx, PageSize+8, Load); f != nil {
		t.Fatalf("load on frozen page faulted: %+v", f)
	}
	_, f := m.Translate(ctx, PageSize+8, Store)
	if f == nil || f.Stage != 2 || f.Kind != FaultPermission {
		t.Fatalf("store on frozen page: fault = %+v, want stage-2 permission", f)
	}

	// Freezing twice with a different pool is an error.
	if _, err := s2.FreezeCow(NewCowPool(), all); err == nil {
		t.Fatal("FreezeCow with a second pool must fail")
	}
	_ = p
}

func TestCowSoleOwnerReclaimsInPlace(t *testing.T) {
	s2, m, ctx, _ := cowSetup(t, 2)
	pool := NewCowPool()
	if _, err := s2.FreezeCow(pool, func(uint64) bool { return true }); err != nil {
		t.Fatal(err)
	}
	m.FlushVMID(ctx.VMID)
	paBefore, _, err := s2.Lookup(0)
	if err != nil {
		t.Fatal(err)
	}

	_, f := m.Translate(ctx, 0, Store)
	if f == nil {
		t.Fatal("store on frozen page did not fault")
	}
	done, err := s2.CowFault(f.IPA)
	if err != nil || !done {
		t.Fatalf("CowFault = %v, %v, want true", done, err)
	}
	m.FlushS2Page(ctx.VMID, f.IPA)

	// Sole sharer: same frame, now writable; the pool forgot it.
	paAfter, _, err := s2.Lookup(0)
	if err != nil || paAfter != paBefore {
		t.Fatalf("sole-owner break moved the frame: %#x -> %#x (%v)", paBefore, paAfter, err)
	}
	if pool.Refs(paBefore) != 0 {
		t.Fatalf("reclaimed frame still has %d refs", pool.Refs(paBefore))
	}
	if _, f := m.Translate(ctx, 0, Store); f != nil {
		t.Fatalf("store after break still faults: %+v", f)
	}
	if s2.CowSharedPages() != 1 || s2.CowBrokenPages() != 1 {
		t.Fatalf("page accounting: shared=%d broken=%d", s2.CowSharedPages(), s2.CowBrokenPages())
	}

	// A stale-TLB re-fault on the broken page is idempotent and claimed.
	if done, err := s2.CowFault(f.IPA); err != nil || !done {
		t.Fatalf("stale-TLB CowFault = %v, %v, want true", done, err)
	}
}

func TestCowCloneIsolation(t *testing.T) {
	s2, m, ctx, p := cowSetup(t, 3)
	pool := NewCowPool()
	if _, err := s2.FreezeCow(pool, func(uint64) bool { return true }); err != nil {
		t.Fatal(err)
	}
	m.FlushVMID(ctx.VMID)
	c1, ctx1 := cloneTable(t, s2, pool, p, m, 8)
	c2, ctx2 := cloneTable(t, s2, pool, p, m, 9)

	sharedPA, _, _ := s2.Lookup(PageSize)
	if got := pool.Refs(sharedPA); got != 3 {
		t.Fatalf("frame refs after two adoptions = %d, want 3", got)
	}

	// Clone 1 writes page 1: it must get a private copy carrying the
	// original contents; the template, clone 2 and the shared frame keep
	// theirs.
	_, f := m.Translate(ctx1, PageSize+16, Store)
	if f == nil {
		t.Fatal("clone store on shared page did not fault")
	}
	if done, err := c1.CowFault(f.IPA); err != nil || !done {
		t.Fatalf("clone CowFault = %v, %v, want true", done, err)
	}
	m.FlushS2Page(ctx1.VMID, f.IPA)
	c1PA, _, _ := c1.Lookup(PageSize)
	if c1PA == sharedPA {
		t.Fatal("clone write did not privatize the frame")
	}
	if w, _ := s2.Mem.Read64(c1PA); w != 0x1001 {
		t.Fatalf("private copy contents = %#x, want the snapshot's %#x", w, 0x1001)
	}
	if got := pool.Refs(sharedPA); got != 2 {
		t.Fatalf("frame refs after one break = %d, want 2", got)
	}

	// Mutate clone 1's private copy; the shared frame is untouched.
	if err := s2.Mem.Write64(c1PA, 0xDEAD); err != nil {
		t.Fatal(err)
	}
	if w, _ := s2.Mem.Read64(sharedPA); w != 0x1001 {
		t.Fatalf("shared frame mutated through clone: %#x", w)
	}
	c2PA, _, _ := c2.Lookup(PageSize)
	if c2PA != sharedPA {
		t.Fatal("unwritten clone lost its shared mapping")
	}
	// Clone 2 still faults on store (its own protection is intact).
	if _, f := m.Translate(ctx2, PageSize, Store); f == nil {
		t.Fatal("clone 2 store did not fault after sibling's break")
	}

	// Template breaks next (refs 2 -> 1, copies), then clone 2 is the last
	// sharer and reclaims the original frame in place.
	if done, err := s2.CowFault(PageSize); err != nil || !done {
		t.Fatalf("template CowFault = %v, %v", done, err)
	}
	m.FlushS2Page(ctx.VMID, PageSize)
	if done, err := c2.CowFault(PageSize); err != nil || !done {
		t.Fatalf("last-sharer CowFault = %v, %v", done, err)
	}
	m.FlushS2Page(ctx2.VMID, PageSize)
	if c2PA, _, _ = c2.Lookup(PageSize); c2PA != sharedPA {
		t.Fatal("last sharer should reclaim the frame in place")
	}
	if pool.Refs(sharedPA) != 0 {
		t.Fatalf("fully broken frame still has %d refs", pool.Refs(sharedPA))
	}
}

func TestCowRetainPinsFrame(t *testing.T) {
	s2, m, ctx, _ := cowSetup(t, 1)
	pool := NewCowPool()
	if _, err := s2.FreezeCow(pool, func(uint64) bool { return true }); err != nil {
		t.Fatal(err)
	}
	m.FlushVMID(ctx.VMID)
	pa, _, _ := s2.Lookup(0)
	pool.Retain(pa) // a snapshot object holding the frame immutable

	if done, err := s2.CowFault(0); err != nil || !done {
		t.Fatalf("CowFault = %v, %v", done, err)
	}
	newPA, _, _ := s2.Lookup(0)
	if newPA == pa {
		t.Fatal("retained frame was reclaimed in place")
	}
	if w, _ := s2.Mem.Read64(pa); w != 0x1000 {
		t.Fatalf("retained frame mutated: %#x", w)
	}
	if pool.Refs(pa) != 1 {
		t.Fatalf("retained frame refs = %d, want 1", pool.Refs(pa))
	}
	pool.Release(pa)
	if pool.Refs(pa) != 0 {
		t.Fatalf("released frame refs = %d, want 0", pool.Refs(pa))
	}
}

func TestCowDirtyLogInterplay(t *testing.T) {
	s2, m, ctx, _ := cowSetup(t, 4)
	pool := NewCowPool()
	all := func(uint64) bool { return true }

	// Freeze refuses while the dirty log runs.
	if _, err := s2.EnableDirtyLog(all); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.FreezeCow(pool, all); err == nil {
		t.Fatal("FreezeCow under an active dirty log must fail")
	}
	if err := s2.DisableDirtyLog(); err != nil {
		t.Fatal(err)
	}

	if _, err := s2.FreezeCow(pool, all); err != nil {
		t.Fatal(err)
	}
	m.FlushVMID(ctx.VMID)
	// Break page 2 so the table has one writable page again.
	if done, err := s2.CowFault(2 * PageSize); err != nil || !done {
		t.Fatalf("CowFault = %v, %v", done, err)
	}
	m.FlushS2Page(ctx.VMID, 2*PageSize)

	// The dirty log over a partly-shared table protects only the writable
	// (broken) page; still-shared pages stay read-only and unlogged.
	n, err := s2.EnableDirtyLog(all)
	if err != nil || n != 1 {
		t.Fatalf("EnableDirtyLog over CoW table = %d, %v, want 1 protected page", n, err)
	}
	// Adoption is refused while logging.
	if err := s2.AdoptCowPage(pool, 16*PageSize, 0x1234000); err == nil {
		t.Fatal("AdoptCowPage under an active dirty log must fail")
	}
	// A CoW break while logging records the page dirty (it was never
	// transferred), like a page mapped writable mid-round.
	if done, err := s2.CowFault(3 * PageSize); err != nil || !done {
		t.Fatalf("CowFault under logging = %v, %v", done, err)
	}
	m.FlushS2Page(ctx.VMID, 3*PageSize)
	dirty, err := s2.CollectDirty()
	if err != nil || len(dirty) != 1 || dirty[0] != 3*PageSize {
		t.Fatalf("CollectDirty after CoW break = %#x, %v, want [0x3000]", dirty, err)
	}
	// The log re-protected the broken page; its fault now belongs to the
	// dirty log, not the CoW layer.
	if done, err := s2.CowFault(3 * PageSize); err != nil || done {
		t.Fatalf("CowFault on log-reprotected page = %v, %v, want false", done, err)
	}
	if dirtied, err := s2.DirtyFault(3 * PageSize); err != nil || !dirtied {
		t.Fatalf("DirtyFault on reprotected page = %v, %v, want true", dirtied, err)
	}
	if err := s2.DisableDirtyLog(); err != nil {
		t.Fatal(err)
	}
}

func TestDirtyLogLifecycleErrors(t *testing.T) {
	s2, _, _ := dirtySetup(t, 2)
	if err := s2.DisableDirtyLog(); err == nil {
		t.Fatal("DisableDirtyLog with no active log must fail")
	}
	if _, err := s2.CollectDirty(); err == nil {
		t.Fatal("CollectDirty with no active log must fail")
	}
	all := func(uint64) bool { return true }
	if _, err := s2.EnableDirtyLog(all); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.EnableDirtyLog(all); err != ErrDirtyLogActive {
		t.Fatalf("double enable error = %v, want ErrDirtyLogActive", err)
	}
	if err := s2.DisableDirtyLog(); err != nil {
		t.Fatal(err)
	}
	if err := s2.DisableDirtyLog(); err != ErrDirtyLogInactive {
		t.Fatalf("double disable error = %v, want ErrDirtyLogInactive", err)
	}
}

// TestCowBreakCopiesTheWholeFrameOnce pins the copy leg of a sharing
// break: the private frame carries every byte of the shared one, and the
// copy reaches mem.OnWrite as one page-sized write.
func TestCowBreakCopiesTheWholeFrameOnce(t *testing.T) {
	s2, m, _, p := cowSetup(t, 1)
	ram := s2.Mem.(*mem.Physical)
	shared, _, _ := s2.Lookup(0)
	pattern := make([]byte, PageSize)
	for i := range pattern {
		pattern[i] = byte(i*7 + 3)
	}
	if err := ram.WriteBytes(shared, pattern); err != nil {
		t.Fatal(err)
	}
	pool := NewCowPool()
	if _, err := s2.FreezeCow(pool, func(uint64) bool { return true }); err != nil {
		t.Fatal(err)
	}
	c, _ := cloneTable(t, s2, pool, p, m, 8)

	var writes [][2]uint64
	ram.OnWrite = func(pa, n uint64) { writes = append(writes, [2]uint64{pa, n}) }
	if done, err := c.CowFault(0); err != nil || !done {
		t.Fatalf("CowFault = %v, %v, want true", done, err)
	}
	ram.OnWrite = nil
	private, _, _ := c.Lookup(0)
	if private == shared {
		t.Fatal("break did not privatize the frame")
	}
	got := make([]byte, PageSize)
	_ = ram.ReadBytes(private, got)
	if string(got) != string(pattern) {
		t.Fatal("private copy differs from the shared frame")
	}
	copies := 0
	for _, w := range writes {
		if w[0]>>PageShift == private>>PageShift {
			copies++
			if w != [2]uint64{private, PageSize} {
				t.Fatalf("copy reported as %#x+%d, want one write of the whole frame", w[0], w[1])
			}
		}
	}
	if copies != 1 {
		t.Fatalf("copy reported %d times, want once: %v", copies, writes)
	}
}

// TestCowBreakNeedsFrameCopier: a table whose memory cannot copy frames
// in place fails the break with a typed error before allocating, and the
// page stays shared.
func TestCowBreakNeedsFrameCopier(t *testing.T) {
	s2, m, _, p := cowSetup(t, 1)
	pool := NewCowPool()
	if _, err := s2.FreezeCow(pool, func(uint64) bool { return true }); err != nil {
		t.Fatal(err)
	}
	c, _ := cloneTable(t, s2, pool, p, m, 8)
	c.Mem = shiftMem{s2.Mem.(*mem.Physical), 0} // words only, no Copy
	next := p.next
	if done, err := c.CowFault(0); !errors.Is(err, ErrNoFrameCopier) || done {
		t.Fatalf("CowFault = %v, %v, want ErrNoFrameCopier", done, err)
	}
	if p.next != next {
		t.Fatal("failed break allocated a page")
	}
	if !c.IsCowShared(0) || c.CowBrokenPages() != 0 {
		t.Fatal("failed break changed the sharing state")
	}
}

// TestCowBreakCopyAllocsNothing pins that breaking a shared page — the
// allocation (stubbed by the bump pool), the frame copy, the leaf update
// and the bookkeeping — makes no heap allocation once the table's maps
// have room.
func TestCowBreakCopyAllocsNothing(t *testing.T) {
	const pages = 64
	s2, m, _, p := cowSetup(t, pages)
	pool := NewCowPool()
	if _, err := s2.FreezeCow(pool, func(uint64) bool { return true }); err != nil {
		t.Fatal(err)
	}
	c, _ := cloneTable(t, s2, pool, p, m, 8)
	c.cowBroken = make(map[uint32]bool, pages)
	next := uint64(0)
	allocs := testing.AllocsPerRun(pages-1, func() {
		if done, err := c.CowFault(next); err != nil || !done {
			t.Fatalf("CowFault(%#x) = %v, %v", next, done, err)
		}
		next += PageSize
	})
	if allocs != 0 {
		t.Fatalf("CowFault copy allocates %.1f times per break, want 0", allocs)
	}
	if c.CowBrokenPages() != pages {
		t.Fatalf("broke %d pages, want %d", c.CowBrokenPages(), pages)
	}
}
