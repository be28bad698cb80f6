package mmu

import (
	"testing"
	"testing/quick"

	"kvmarm/internal/mem"
)

const ramBase = 0x8000_0000

type pool struct {
	next uint64
}

func (p *pool) AllocPages(n int) (uint64, error) {
	pa := p.next
	p.next += uint64(n) * PageSize
	return pa, nil
}

func setup(t *testing.T) (*mem.Physical, *pool, *MMU) {
	t.Helper()
	ram := mem.New(ramBase, 64<<20)
	return ram, &pool{next: ramBase + 32<<20}, New(ram, 25)
}

func TestStage1PageMapping(t *testing.T) {
	ram, p, m := setup(t)
	b, err := NewBuilder(TableKernel, ram, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.MapPage(0x1000, ramBase+0x5000, MapFlags{W: true, U: true}); err != nil {
		t.Fatal(err)
	}
	ctx := &Context{S1Enabled: true, TTBR0: b.Root}
	res, f := m.Translate(ctx, 0x1234, Load)
	if f != nil {
		t.Fatal(f)
	}
	if res.PA != ramBase+0x5234 {
		t.Fatalf("PA = %#x, want %#x", res.PA, ramBase+0x5234)
	}
}

func TestStage1BlockMapping(t *testing.T) {
	ram, p, m := setup(t)
	b, _ := NewBuilder(TableKernel, ram, p)
	if err := b.MapBlock(0x0040_0000, ramBase, MapFlags{W: true}); err != nil {
		t.Fatal(err)
	}
	ctx := &Context{S1Enabled: true, TTBR0: b.Root}
	res, f := m.Translate(ctx, 0x0040_0000+0x12345, Load)
	if f != nil {
		t.Fatal(f)
	}
	if res.PA != ramBase+0x12345 {
		t.Fatalf("PA = %#x", res.PA)
	}
}

func TestTranslationFaultOnUnmapped(t *testing.T) {
	ram, p, m := setup(t)
	b, _ := NewBuilder(TableKernel, ram, p)
	ctx := &Context{S1Enabled: true, TTBR0: b.Root}
	_, f := m.Translate(ctx, 0xBADC0DE, Load)
	if f == nil || f.Kind != FaultTranslation || f.Stage != 1 {
		t.Fatalf("fault = %+v, want stage-1 translation fault", f)
	}
}

func TestPermissionFaults(t *testing.T) {
	ram, p, m := setup(t)
	b, _ := NewBuilder(TableKernel, ram, p)
	_ = b.MapPage(0x1000, ramBase+0x5000, MapFlags{W: false, U: false, XN: true})

	ctx := &Context{S1Enabled: true, TTBR0: b.Root}
	if _, f := m.Translate(ctx, 0x1000, Load); f != nil {
		t.Fatalf("privileged read must succeed: %v", f)
	}
	if _, f := m.Translate(ctx, 0x1000, Store); f == nil || f.Kind != FaultPermission {
		t.Fatalf("store to read-only page: fault=%v, want permission", f)
	}
	if _, f := m.Translate(ctx, 0x1000, Fetch); f == nil || f.Kind != FaultPermission {
		t.Fatalf("fetch from XN page: fault=%v, want permission", f)
	}
	uctx := *ctx
	uctx.User = true
	if _, f := m.Translate(&uctx, 0x1000, Load); f == nil || f.Kind != FaultPermission {
		t.Fatalf("user access to kernel page: fault=%v, want permission", f)
	}
}

func TestTTBRSplit(t *testing.T) {
	ram, p, m := setup(t)
	user, _ := NewBuilder(TableKernel, ram, p)
	kern, _ := NewBuilder(TableKernel, ram, p)
	_ = user.MapPage(0x1000, ramBase+0x1000, MapFlags{U: true})
	_ = kern.MapPage(0xC000_1000, ramBase+0x2000, MapFlags{W: true})

	ctx := &Context{S1Enabled: true, TTBR0: user.Root, TTBR1: kern.Root, TTBR1Base: 0xC000_0000}
	r1, f := m.Translate(ctx, 0x1000, Load)
	if f != nil || r1.PA != ramBase+0x1000 {
		t.Fatalf("TTBR0 half: pa=%#x fault=%v", r1.PA, f)
	}
	r2, f := m.Translate(ctx, 0xC000_1000, Load)
	if f != nil || r2.PA != ramBase+0x2000 {
		t.Fatalf("TTBR1 half: pa=%#x fault=%v", r2.PA, f)
	}
}

func TestHypFormatRejectsKernelTables(t *testing.T) {
	// The paper (§3.1): Hyp mode cannot reuse the kernel's page tables
	// because the formats differ. A kernel-format table walked with the
	// Hyp regime must raise a format fault.
	ram, p, m := setup(t)
	kern, _ := NewBuilder(TableKernel, ram, p)
	_ = kern.MapPage(0x1000, ramBase+0x1000, MapFlags{W: true})

	ctx := &Context{S1Enabled: true, Format: FormatHyp, TTBR0: kern.Root}
	_, f := m.Translate(ctx, 0x1000, Load)
	if f == nil || f.Kind != FaultFormat {
		t.Fatalf("fault = %v, want format fault", f)
	}

	hyp, _ := NewBuilder(TableHyp, ram, p)
	_ = hyp.MapPage(0x1000, ramBase+0x1000, MapFlags{W: true})
	ctx.TTBR0 = hyp.Root
	m.FlushAll()
	if _, f := m.Translate(ctx, 0x1000, Load); f != nil {
		t.Fatalf("hyp-format table must walk in hyp regime: %v", f)
	}
}

func TestStage2Translation(t *testing.T) {
	ram, p, m := setup(t)
	s2, _ := NewBuilder(TableStage2, ram, p)
	_ = s2.MapPage(0x1000, ramBase+0x9000, MapFlags{W: true})

	ctx := &Context{S2Enabled: true, VTTBR: s2.Root, VMID: 1}
	res, f := m.Translate(ctx, 0x1abc, Load)
	if f != nil {
		t.Fatal(f)
	}
	if res.PA != ramBase+0x9abc {
		t.Fatalf("PA = %#x", res.PA)
	}
}

func TestStage2FaultReportsIPA(t *testing.T) {
	ram, p, m := setup(t)
	s1, _ := NewBuilder(TableKernel, ram, p)
	s2, _ := NewBuilder(TableStage2, ram, p)
	// Stage-1 lives in IPA space: identity-map its tables through S2.
	_ = s2.MapRange(uint32(s1.Root), s1.Root, 1<<20, MapFlags{W: true})
	// VA 0x2000 -> IPA 0x7000, which Stage-2 does not map.
	_ = s1.MapPage(0x2000, 0x7000, MapFlags{W: true})

	ctx := &Context{S1Enabled: true, TTBR0: s1.Root, S2Enabled: true, VTTBR: s2.Root, VMID: 3}
	_, f := m.Translate(ctx, 0x2abc, Load)
	if f == nil || f.Stage != 2 {
		t.Fatalf("fault = %+v, want stage-2", f)
	}
	if f.IPA != 0x7abc {
		t.Fatalf("IPA = %#x, want 0x7abc", f.IPA)
	}
}

func TestTwoDimensionalWalkCost(t *testing.T) {
	// A TLB miss under virtualization must cost more descriptor fetches
	// than a native miss: each Stage-1 descriptor address is translated
	// through Stage-2 first.
	ram, p, m := setup(t)
	s1, _ := NewBuilder(TableKernel, ram, p)
	_ = s1.MapPage(0x3000, 0x3000, MapFlags{W: true})
	ctx := &Context{S1Enabled: true, TTBR0: s1.Root}
	res, f := m.Translate(ctx, 0x3000, Load)
	if f != nil {
		t.Fatal(f)
	}
	nativeCost := res.Cycles

	ram2 := mem.New(ramBase, 64<<20)
	p2 := &pool{next: ramBase + 32<<20}
	m2 := New(ram2, 25)
	s2, _ := NewBuilder(TableStage2, ram2, p2)
	_ = s2.MapRange(0, ramBase, 32<<20, MapFlags{W: true}) // IPA 0.. -> PA ramBase..
	gp := &pool{next: 4 << 20}                             // IPA-space allocator
	g1, _ := NewBuilder(TableKernel, shiftMem{ram2, ramBase}, gp)
	_ = g1.MapPage(0x3000, 0x3000, MapFlags{W: true})

	vctx := &Context{S1Enabled: true, TTBR0: g1.Root, S2Enabled: true, VTTBR: s2.Root, VMID: 1}
	vres, f := m2.Translate(vctx, 0x3000, Load)
	if f != nil {
		t.Fatal(f)
	}
	if vres.Cycles <= nativeCost*2 {
		t.Fatalf("virtualized walk = %d cycles, native = %d; want > 2x (two-dimensional walk)", vres.Cycles, nativeCost)
	}
}

func TestTLBHitSkipsWalk(t *testing.T) {
	ram, p, m := setup(t)
	b, _ := NewBuilder(TableKernel, ram, p)
	_ = b.MapPage(0x1000, ramBase+0x5000, MapFlags{W: true})
	ctx := &Context{S1Enabled: true, TTBR0: b.Root}

	r1, _ := m.Translate(ctx, 0x1000, Load)
	if r1.TLBHit {
		t.Fatal("first access cannot hit")
	}
	r2, _ := m.Translate(ctx, 0x1004, Load)
	if !r2.TLBHit || r2.Cycles != 0 {
		t.Fatalf("second access must hit with zero walk cost: %+v", r2)
	}
}

func TestTLBTaggingByASIDAndVMID(t *testing.T) {
	ram, p, m := setup(t)
	b1, _ := NewBuilder(TableKernel, ram, p)
	b2, _ := NewBuilder(TableKernel, ram, p)
	_ = b1.MapPage(0x1000, ramBase+0x1000, MapFlags{W: true})
	_ = b2.MapPage(0x1000, ramBase+0x2000, MapFlags{W: true})

	c1 := &Context{S1Enabled: true, TTBR0: b1.Root, ASID: 1}
	c2 := &Context{S1Enabled: true, TTBR0: b2.Root, ASID: 2}
	r1, _ := m.Translate(c1, 0x1000, Load)
	r2, _ := m.Translate(c2, 0x1000, Load)
	if r1.PA == r2.PA {
		t.Fatal("different ASIDs must not share TLB entries")
	}
	if r2.TLBHit {
		t.Fatal("ASID 2 must not hit ASID 1's entry")
	}

	// Same VA in two VMIDs.
	m.FlushAll()
	v1 := &Context{S2Enabled: true, VTTBR: mustS2(t, ram, p, 0x1000, ramBase+0x3000), VMID: 1}
	v2 := &Context{S2Enabled: true, VTTBR: mustS2(t, ram, p, 0x1000, ramBase+0x4000), VMID: 2}
	rv1, f := m.Translate(v1, 0x1000, Load)
	if f != nil {
		t.Fatal(f)
	}
	rv2, f := m.Translate(v2, 0x1000, Load)
	if f != nil {
		t.Fatal(f)
	}
	if rv1.PA == rv2.PA || rv2.TLBHit {
		t.Fatal("VMID tagging broken")
	}

	// Flushing VMID 1 must not disturb VMID 2.
	m.FlushVMID(1)
	rv2b, _ := m.Translate(v2, 0x1000, Load)
	if !rv2b.TLBHit {
		t.Fatal("FlushVMID(1) must keep VMID 2 entries")
	}
	rv1b, _ := m.Translate(v1, 0x1000, Load)
	if rv1b.TLBHit {
		t.Fatal("FlushVMID(1) must drop VMID 1 entries")
	}
}

func mustS2(t *testing.T, ram *mem.Physical, p *pool, ipa uint32, pa uint64) uint64 {
	t.Helper()
	b, err := NewBuilder(TableStage2, ram, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.MapPage(ipa, pa, MapFlags{W: true}); err != nil {
		t.Fatal(err)
	}
	return b.Root
}

func TestTLBEvictionBounded(t *testing.T) {
	ram, p, m := setup(t)
	m.TLBCapacity = 16
	b, _ := NewBuilder(TableKernel, ram, p)
	for i := uint32(0); i < 64; i++ {
		_ = b.MapPage(i*PageSize, ramBase+uint64(i)*PageSize, MapFlags{W: true})
	}
	ctx := &Context{S1Enabled: true, TTBR0: b.Root}
	for i := uint32(0); i < 64; i++ {
		if _, f := m.Translate(ctx, i*PageSize, Load); f != nil {
			t.Fatal(f)
		}
	}
	if got := m.tlb.n; got > 16 {
		t.Fatalf("TLB grew to %d entries, capacity 16", got)
	}
}

func TestPropertyMapThenTranslate(t *testing.T) {
	// For any page-aligned VA/PA pair inside RAM, mapping then
	// translating returns exactly the mapped PA plus the page offset.
	ram, p, m := setup(t)
	b, err := NewBuilder(TableKernel, ram, p)
	if err != nil {
		t.Fatal(err)
	}
	f := func(vaPage uint32, paPage uint16, off uint16) bool {
		va := (vaPage % (1 << 18)) * PageSize // keep below TTBR1 regions
		pa := ramBase + uint64(paPage%4096)*PageSize
		offset := uint32(off) % PageSize
		if err := b.MapPage(va, pa, MapFlags{W: true, U: true}); err != nil {
			return false
		}
		m.FlushAll() // the remap may contradict a cached entry
		ctx := &Context{S1Enabled: true, TTBR0: b.Root}
		res, fault := m.Translate(ctx, va+offset, Load)
		return fault == nil && res.PA == pa+uint64(offset)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyUnmappedAlwaysFaults(t *testing.T) {
	ram, p, m := setup(t)
	b, _ := NewBuilder(TableKernel, ram, p)
	_ = b.MapRange(0, ramBase, 1<<20, MapFlags{W: true})
	f := func(va uint32) bool {
		if va < 1<<20 {
			va += 1 << 20
		}
		ctx := &Context{S1Enabled: true, TTBR0: b.Root}
		_, fault := m.Translate(ctx, va, Load)
		return fault != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBuilderLookupAgreesWithTranslate(t *testing.T) {
	ram, p, m := setup(t)
	b, _ := NewBuilder(TableKernel, ram, p)
	_ = b.MapPage(0x7000, ramBase+0xA000, MapFlags{W: true})
	pa, ok, err := b.Lookup(0x7123)
	if err != nil || !ok {
		t.Fatalf("lookup: ok=%v err=%v", ok, err)
	}
	ctx := &Context{S1Enabled: true, TTBR0: b.Root}
	res, f := m.Translate(ctx, 0x7123, Load)
	if f != nil {
		t.Fatal(f)
	}
	if pa != res.PA {
		t.Fatalf("Lookup=%#x Translate=%#x", pa, res.PA)
	}
}

func TestUnmapThenFault(t *testing.T) {
	ram, p, m := setup(t)
	b, _ := NewBuilder(TableKernel, ram, p)
	_ = b.MapPage(0x1000, ramBase+0x1000, MapFlags{W: true})
	ctx := &Context{S1Enabled: true, TTBR0: b.Root}
	if _, f := m.Translate(ctx, 0x1000, Load); f != nil {
		t.Fatal(f)
	}
	if err := b.Unmap(0x1000); err != nil {
		t.Fatal(err)
	}
	m.FlushAll() // software must flush after unmapping, as on hardware
	if _, f := m.Translate(ctx, 0x1000, Load); f == nil {
		t.Fatal("translation after unmap+flush must fault")
	}
}

// shiftMem exposes RAM at an offset, standing in for IPA-space table
// construction.
type shiftMem struct {
	ram *mem.Physical
	off uint64
}

func (s shiftMem) Read64(pa uint64) (uint64, error)  { return s.ram.Read64(pa + s.off) }
func (s shiftMem) Write64(pa uint64, v uint64) error { return s.ram.Write64(pa+s.off, v) }
