package mmu

import (
	"encoding/binary"
	"maps"
	"math/rand"
	"testing"

	"kvmarm/internal/mem"
)

// refKey and refMMU are the TLB as it was before the slot array — a map of
// entries plus a FIFO order slice that every bulk delete compacts — kept as
// the oracle the slot array must match operation for operation. Table walks
// go through an inner MMU whose own TLB is never used.
type refKey struct {
	page uint32
	asid uint8
	vmid uint8
	s1   bool
}

func (k refKey) pack() tlbKey { return makeKey(k.page, k.asid, k.vmid, k.s1) }

func unpack(k tlbKey) refKey {
	return refKey{page: uint32(k), asid: k.asid(), vmid: k.vmid(), s1: k.s1()}
}

type refMMU struct {
	walker      *MMU
	TLBCapacity int
	Code        CodeInvalidator

	tlb   map[refKey]tlbEntry
	order []refKey
	stats TLBStats
}

func newRefMMU(phys PhysReader, walkReadCycles uint64) *refMMU {
	return &refMMU{walker: New(phys, walkReadCycles), TLBCapacity: 512, tlb: make(map[refKey]tlbEntry)}
}

func (m *refMMU) Stats() TLBStats {
	st := m.stats
	st.WalkReads = m.walker.stats.WalkReads
	return st
}

func (m *refMMU) FlushAll() {
	m.tlb = make(map[refKey]tlbEntry)
	m.order = m.order[:0]
	m.stats.Flushes++
	if m.Code != nil {
		m.Code.InvalidateAll()
	}
}

func (m *refMMU) FlushASID(vmid, asid uint8) {
	for k := range m.tlb {
		if k.s1 && k.asid == asid && k.vmid == vmid {
			delete(m.tlb, k)
		}
	}
	m.compactOrder()
	m.stats.Flushes++
}

func (m *refMMU) FlushVMID(vmid uint8) {
	for k := range m.tlb {
		if k.vmid == vmid {
			delete(m.tlb, k)
		}
	}
	m.compactOrder()
	m.stats.Flushes++
	if m.Code != nil {
		m.Code.InvalidateAll()
	}
}

func (m *refMMU) FlushS2Page(vmid uint8, ipa uint64) {
	page := ipa >> PageShift
	for k, e := range m.tlb {
		if k.vmid == vmid && e.ipaPage == page {
			if m.Code != nil {
				m.Code.InvalidatePhysPage(e.paPage)
			}
			delete(m.tlb, k)
		}
	}
	m.compactOrder()
	m.stats.Flushes++
}

func (m *refMMU) compactOrder() {
	keep := m.order[:0]
	for _, k := range m.order {
		if _, ok := m.tlb[k]; ok {
			keep = append(keep, k)
		}
	}
	m.order = keep
}

func (m *refMMU) insert(k refKey, e tlbEntry) {
	if _, exists := m.tlb[k]; exists {
		m.tlb[k] = e
		return
	}
	capacity := m.TLBCapacity
	if capacity <= 0 {
		capacity = 512
	}
	if len(m.tlb) >= capacity {
		victim := m.order[0]
		m.order = m.order[1:]
		delete(m.tlb, victim)
	}
	m.order = append(m.order, k)
	m.tlb[k] = e
}

func (m *refMMU) Translate(ctx *Context, va uint32, at AccessType) (Result, *Fault) {
	r, f := m.translate(ctx, va, at)
	if f != nil && f.Kind == FaultPermission {
		m.stats.PermFaults++
	}
	return r, f
}

func (m *refMMU) translate(ctx *Context, va uint32, at AccessType) (Result, *Fault) {
	key := refKey{page: va >> PageShift, asid: ctx.ASID, vmid: 0, s1: ctx.S1Enabled}
	if ctx.S2Enabled {
		key.vmid = ctx.VMID
	}
	if !ctx.S1Enabled {
		key.asid = 0
	}
	if e, ok := m.tlb[key]; ok {
		m.stats.Hits++
		if f := checkPerms(&e, ctx, va, at); f != nil {
			return Result{}, f
		}
		return Result{PA: e.paPage<<PageShift | uint64(va)&(PageSize-1), TLBHit: true}, nil
	}
	m.stats.Misses++

	var cycles uint64
	entry := tlbEntry{w: true, u: true, s2w: true}
	ipa := uint64(va)
	if ctx.S1Enabled {
		e1, c, f := m.walker.walkStage1(ctx, va, at)
		cycles += c
		if f != nil {
			return Result{}, f
		}
		ipa = e1.paPage<<PageShift | uint64(va)&(PageSize-1)
		entry.w = e1.w
		entry.u = e1.u
		entry.xn = e1.xn
	} else {
		m.stats.Stage2Only++
	}
	pa := ipa
	if ctx.S2Enabled {
		e2, c, f := m.walker.walkStage2(ctx, ipa, va, at)
		cycles += c
		if f != nil {
			return Result{}, f
		}
		pa = e2.paPage<<PageShift | ipa&(PageSize-1)
		entry.s2w = e2.w
		entry.xn = entry.xn || e2.xn
	}
	entry.ipaPage = ipa >> PageShift
	entry.paPage = pa >> PageShift
	if f := checkPerms(&entry, ctx, va, at); f != nil {
		return Result{}, f
	}
	m.insert(key, entry)
	return Result{PA: pa, Cycles: cycles}, nil
}

// resident lists the slot-array TLB's keys oldest first.
func (m *MMU) resident() []refKey {
	var keys []refKey
	for s := m.tlb.head; s != 0; s = m.tlb.slots[s-1].next {
		keys = append(keys, unpack(m.tlb.slots[s-1].key))
	}
	return keys
}

// recordCode records the code invalidations one TLB operation issues.
type recordCode struct {
	pages map[uint64]bool
	all   int
}

func (r *recordCode) InvalidatePhysPage(p uint64) { r.pages[p] = true }
func (r *recordCode) InvalidateAll()              { r.all++ }

func (r *recordCode) reset() {
	clear(r.pages)
	r.all = 0
}

// tlbWorld is the fixed translation setup FuzzTLB draws contexts from:
// Stage-1 tables for four ASIDs over fuzzVAPages pages (every fifth page
// unmapped, mixed permissions), and Stage-2 tables for VMIDs 1 and 2 over
// fuzzIPAPages IPA pages (every seventh unmapped, some read-only), with many
// VA pages aliasing each IPA page so per-IPA flushes hit several entries.
type tlbWorld struct {
	s1 [4]uint64 // per-ASID Stage-1 root
	s2 [3]uint64 // per-VMID Stage-2 root (index 0 unused)
}

const (
	fuzzVAPages  = 640
	fuzzIPAPages = 48
)

func newTLBWorld(t testing.TB) (*tlbWorld, PhysReader) {
	ram := mem.New(ramBase, 64<<20)
	p := &pool{next: ramBase + 32<<20}
	w := &tlbWorld{}
	for asid := range w.s1 {
		b, err := NewBuilder(TableKernel, ram, p)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint32(0); i < fuzzVAPages; i++ {
			if (i+uint32(asid))%5 == 0 {
				continue
			}
			ipa := uint64((i*7 + uint32(asid)) % fuzzIPAPages)
			flags := MapFlags{W: i%3 != 0, U: i%4 != 1, XN: i%6 == 5}
			if err := b.MapPage(i*PageSize, ipa*PageSize, flags); err != nil {
				t.Fatal(err)
			}
		}
		w.s1[asid] = b.Root
	}
	for vmid := 1; vmid < len(w.s2); vmid++ {
		b, err := NewBuilder(TableStage2, ram, p)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint32(0); i < fuzzIPAPages; i++ {
			if (i+uint32(vmid))%7 == 0 {
				continue
			}
			pa := ramBase + uint64(i*uint32(vmid)%fuzzIPAPages)*PageSize
			if err := b.MapPage(i*PageSize, pa, MapFlags{W: i%5 != 0, XN: i%8 == 3}); err != nil {
				t.Fatal(err)
			}
		}
		w.s2[vmid] = b.Root
	}
	return w, ram
}

// tlbCoverage counts what one oracle run exercised.
type tlbCoverage struct {
	full      int // operations that found the TLB at capacity
	victims   int // entries evicted by fills
	pageHits  int // entries removed by FlushS2Page
	scopeHits int // entries removed by FlushASID / FlushVMID
}

// runTLBOracle drives the slot-array TLB and the map+order oracle with the
// operation stream ops (six bytes each) at the given starting capacity, and
// fails unless after every operation both hold the same resident keys and
// entries in the same FIFO order, evicted the same victims, agree on
// TLBStats and on every translation result, and issued the same code
// invalidations.
func runTLBOracle(t *testing.T, world *tlbWorld, ram PhysReader, capacity int, ops []byte) tlbCoverage {
	var cov tlbCoverage
	got, want := New(ram, 25), newRefMMU(ram, 25)
	got.TLBCapacity, want.TLBCapacity = capacity, capacity
	gotCode, wantCode := &recordCode{pages: map[uint64]bool{}}, &recordCode{pages: map[uint64]bool{}}
	got.Code, want.Code = gotCode, wantCode

	for i := 0; len(ops) >= 6; i, ops = i+1, ops[6:] {
		op, a, b := ops[0], ops[1], binary.LittleEndian.Uint32(ops[2:])
		var oldest refKey
		before := len(want.order)
		if before > 0 {
			oldest = want.order[0]
		}
		if before >= capacity {
			cov.full++
		}
		gotCode.reset()
		wantCode.reset()
		var what string
		switch {
		case op == 0 && a < 16: // rare, so streams reach capacity
			what = "FlushAll"
			got.FlushAll()
			want.FlushAll()
		case op == 1: // scoped flushes stay rare enough that streams fill
			what = "FlushASID"
			got.FlushASID(uint8(b%4), a%5)
			want.FlushASID(uint8(b%4), a%5)
		case op == 2:
			what = "FlushVMID"
			got.FlushVMID(a % 4)
			want.FlushVMID(a % 4)
		case op < 20:
			what = "FlushS2Page"
			ipa := uint64(b%(fuzzIPAPages+4))<<PageShift | uint64(b>>16)&(PageSize-1)
			got.FlushS2Page(a%4, ipa)
			want.FlushS2Page(a%4, ipa)
		case op < 22:
			// Raise only: below the resident count neither TLB shrinks,
			// so size <= capacity would not hold.
			what = "raise capacity"
			capacity = min(512, capacity+int(a%16))
			got.TLBCapacity, want.TLBCapacity = capacity, capacity
		case op < 140:
			what = "insert"
			k := refKey{page: b % 2048, asid: a % 4, vmid: a >> 2 % 4, s1: a&0x10 != 0}
			e := tlbEntry{paPage: uint64(b >> 11 % 64), ipaPage: uint64(b >> 17 % (fuzzIPAPages + 4)),
				w: a&0x20 != 0, u: a&0x40 != 0, xn: a&0x80 != 0, s2w: b>>30 != 0}
			got.insert(k.pack(), e)
			want.insert(k, e)
		default:
			what = "translate"
			ctx := &Context{
				S1Enabled: a&1 != 0, S2Enabled: a&2 != 0, User: a&4 != 0,
				ASID: a >> 3 % 4, VMID: 1 + a>>5%2, Format: FormatKernel,
			}
			ctx.TTBR0 = world.s1[ctx.ASID]
			ctx.VTTBR = world.s2[ctx.VMID]
			va := uint32(b%(fuzzVAPages+16))<<PageShift | b>>20&(PageSize-1)
			if !ctx.S1Enabled {
				va = uint32(b%(fuzzIPAPages+4))<<PageShift | b>>20&(PageSize-1)
			}
			at := AccessType(b >> 18 % 3)
			gr, gf := got.Translate(ctx, va, at)
			wr, wf := want.Translate(ctx, va, at)
			if gr != wr || (gf == nil) != (wf == nil) || gf != nil && *gf != *wf {
				t.Fatalf("op %d translate(%+v, %#x, %v): got %+v %v, want %+v %v", i, *ctx, va, at, gr, gf, wr, wf)
			}
		}
		checkTLBInvariant(t, got)
		j := 0
		for sl := got.tlb.head; sl != 0; sl = got.tlb.slots[sl-1].next {
			k, e := unpack(got.tlb.slots[sl-1].key), got.tlb.slots[sl-1].e
			if j >= len(want.order) || k != want.order[j] || e != want.tlb[k] {
				t.Fatalf("op %d %s: resident order differs at %d\n got  %v\n want %v", i, what, j, got.resident(), want.order)
			}
			j++
		}
		if j != len(want.order) {
			t.Fatalf("op %d %s: %d entries resident, want %d", i, what, j, len(want.order))
		}
		// The orders agree before and after every operation, so the
		// entries each side removed agree too; a fill may remove only the
		// oldest entry, and must on both sides alike.
		switch what {
		case "insert", "translate":
			if before == 0 {
				break
			}
			_, wantKept := want.tlb[oldest]
			gotKept := got.tlb.find(oldest.pack()) != 0
			if gotKept != wantKept {
				t.Fatalf("op %d %s: oldest entry %+v kept=%v, oracle kept=%v", i, what, oldest, gotKept, wantKept)
			}
			if !gotKept {
				cov.victims++
			}
		case "FlushS2Page":
			cov.pageHits += before - j
		case "FlushASID", "FlushVMID":
			cov.scopeHits += before - j
		}
		if gs, ws := got.Stats(), want.Stats(); gs != ws {
			t.Fatalf("op %d %s: stats %+v, want %+v", i, what, gs, ws)
		}
		if !maps.Equal(gotCode.pages, wantCode.pages) || gotCode.all != wantCode.all {
			t.Fatalf("op %d %s: code invalidations pages=%v all=%d, want pages=%v all=%d",
				i, what, gotCode.pages, gotCode.all, wantCode.pages, wantCode.all)
		}
	}
	return cov
}

func randomOps(seed int64, n int) []byte {
	ops := make([]byte, 6*n)
	rand.New(rand.NewSource(seed)).Read(ops)
	return ops
}

// FuzzTLB runs the oracle comparison on arbitrary operation streams at
// capacities 4..512.
func FuzzTLB(f *testing.F) {
	f.Add(uint16(0), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(uint16(seed*127), randomOps(seed, 1000))
	}
	world, ram := newTLBWorld(f)
	f.Fuzz(func(t *testing.T, capSel uint16, ops []byte) {
		runTLBOracle(t, world, ram, 4+int(capSel)%509, ops[:min(len(ops), 6*1000)])
	})
}

// TestTLBOracleCoverage pins that the oracle streams actually reach the
// cases the comparison is for: a full TLB evicting FIFO victims, and
// per-IPA and per-ASID/VMID flushes that remove live entries, at the
// smallest, an odd and the default capacity.
func TestTLBOracleCoverage(t *testing.T) {
	world, ram := newTLBWorld(t)
	for _, capacity := range []int{4, 37, 512} {
		cov := runTLBOracle(t, world, ram, capacity, randomOps(int64(capacity), 12000))
		if cov.full == 0 || cov.victims == 0 || cov.pageHits == 0 || cov.scopeHits == 0 {
			t.Errorf("capacity %d: stream too weak: %+v", capacity, cov)
		}
	}
}
