// Package mmu implements the two-stage ARMv7/LPAE-style memory management
// unit of the paper's §2 "Memory Virtualization":
//
//   - Stage-1 translates virtual addresses (VAs) to what the operating
//     system believes are physical addresses. For a VM these are really
//     Intermediate Physical Addresses (IPAs, "guest physical addresses").
//   - Stage-2, enabled and configured only from Hyp mode (HCR.VM, VTTBR),
//     translates IPAs to real physical addresses (PAs) and is completely
//     transparent to the VM.
//
// Kernel mode uses two table base registers (TTBR0/TTBR1) to split the
// address space between user and kernel; Hyp mode has a single base
// register and a *different descriptor format* — the incompatibility that
// forces KVM/ARM's highvisor to maintain dedicated Hyp page tables instead
// of reusing the kernel's (§3.1).
//
// When Stage-2 is enabled, page-table walks become two-dimensional: every
// Stage-1 descriptor address is itself an IPA that must be translated
// through Stage-2 before the descriptor can be fetched. A TLB miss under
// virtualization therefore costs up to (S1 levels+1) × (S2 levels+1)
// descriptor fetches instead of S1 levels — the mechanistic source of the
// memory-overhead bars in Figures 3–6.
package mmu

import (
	"fmt"

	"kvmarm/internal/trace"
)

// AccessType distinguishes instruction fetches from data accesses.
type AccessType int

// Access types.
const (
	Fetch AccessType = iota
	Load
	Store
)

func (a AccessType) String() string {
	switch a {
	case Fetch:
		return "fetch"
	case Load:
		return "load"
	case Store:
		return "store"
	}
	return "access?"
}

// Format selects the Stage-1 descriptor format.
type Format int

// Stage-1 formats. FormatHyp descriptors mandate the AF bit and forbid
// user-accessible mappings; kernel-format tables therefore do not validate
// in Hyp mode and vice versa.
const (
	FormatKernel Format = iota
	FormatHyp
)

// Translation geometry: 32-bit VA/IPA, 4 KiB pages, two levels.
// L1 indexes VA[31:22] (4 MiB reach per entry, usable as a block mapping),
// L2 indexes VA[21:12]. Descriptors are 64-bit.
const (
	PageShift  = 12
	PageSize   = 1 << PageShift
	L1Shift    = 22
	L1Entries  = 1 << (32 - L1Shift) // 1024
	L2Entries  = 1 << (L1Shift - PageShift)
	TableBytes = L1Entries * 8 // both levels: 8 KiB
	BlockSize  = 1 << L1Shift
)

// Descriptor bits, shared layout with per-format validation.
const (
	DescValid uint64 = 1 << 0
	DescTable uint64 = 1 << 1 // at L1: points to an L2 table; else block leaf
	DescW     uint64 = 1 << 2 // writable
	DescU     uint64 = 1 << 3 // user (PL0) accessible — forbidden in Hyp format
	DescXN    uint64 = 1 << 4 // execute never
	DescAF    uint64 = 1 << 5 // access flag — mandated set in Hyp format
	// Stage-2 leaf descriptors must carry memory attributes; ARM mandates
	// MemAttr != 0 for valid mappings, which we model with one bit.
	DescS2MemAttr uint64 = 1 << 6
	DescAddrMask  uint64 = 0x000000FFFFFFF000
)

// FaultKind classifies translation failures.
type FaultKind int

// Fault kinds.
const (
	FaultTranslation FaultKind = iota
	FaultPermission
	FaultFormat // descriptor invalid for the active format (Hyp vs kernel)
)

func (k FaultKind) String() string {
	switch k {
	case FaultTranslation:
		return "translation"
	case FaultPermission:
		return "permission"
	case FaultFormat:
		return "format"
	}
	return "fault?"
}

// Fault describes a failed translation. Stage-1 faults are delivered to the
// operating system that owns the Stage-1 tables (for a VM, the guest
// kernel, without hypervisor involvement); Stage-2 faults trap to Hyp mode
// with the faulting IPA.
type Fault struct {
	Stage  int // 1 or 2
	Kind   FaultKind
	Level  int // table level where the walk failed (1 or 2)
	VA     uint32
	IPA    uint64
	Access AccessType
}

func (f *Fault) Error() string {
	return fmt.Sprintf("mmu: stage-%d %s fault at L%d: va=%#x ipa=%#x (%s)",
		f.Stage, f.Kind, f.Level, f.VA, f.IPA, f.Access)
}

// Context is the translation regime in effect for one access, assembled by
// the CPU from its system registers.
type Context struct {
	S1Enabled bool
	Format    Format
	TTBR0     uint64
	TTBR1     uint64
	// TTBR1Base: VAs at or above this boundary translate through TTBR1
	// (the kernel half of the split). Zero means TTBR0 covers everything.
	TTBR1Base uint32
	ASID      uint8
	// User marks a PL0 access (privilege check against DescU).
	User bool

	S2Enabled bool
	VTTBR     uint64
	VMID      uint8
}

// Result is a successful translation.
type Result struct {
	PA     uint64
	Cycles uint64 // descriptor-fetch cycles charged for this access
	TLBHit bool
}

// PhysReader provides raw physical memory for table walks.
type PhysReader interface {
	Read64(pa uint64) (uint64, error)
}

// CodeInvalidator receives physical-page invalidation notices from the
// translation layer: TLB shootdown (MMU.Code), and write-protect
// transitions — dirty-log toggles and copy-on-write sharing breaks — from
// the Stage-2 table owner (Builder.Code). The decoded basic-block cache
// (internal/isa) implements it; this package only defines the interface so
// the dependency stays one-way.
type CodeInvalidator interface {
	// InvalidatePhysPage drops cached code in the given PA page.
	InvalidatePhysPage(paPage uint64)
	// InvalidateAll drops everything.
	InvalidateAll()
}

// MMU is one CPU's translation unit with its TLB.
//
// The TLB is unified (one entry per page, tagged with ASID and VMID) and
// holds at most TLBCapacity entries, evicting the oldest first (FIFO). It
// is a dense slot array threaded in insertion order by intrusive links,
// found through an index keyed by the (page, ASID, VMID, Stage-1) tuple
// packed into one word, so a hit, a fill and an eviction cost O(1). The
// maintenance operations (FlushASID, FlushVMID, FlushS2Page) visit the at
// most TLBCapacity slots once; FlushAll empties it in place.
type MMU struct {
	Phys PhysReader
	// WalkReadCycles is the cost of one descriptor fetch.
	WalkReadCycles uint64
	// TLBCapacity bounds the unified TLB (entries); 0 means default. It is
	// read at every fill, so it may be changed after New.
	TLBCapacity int
	// Trace, when non-nil, receives TLB maintenance events (flushes).
	Trace *trace.Tracer
	// Code, when non-nil, is notified on TLB shootdown so decoded-code
	// caches drop stale blocks with the translations. Stage-1-only
	// maintenance (FlushASID) does not notify: blocks are keyed by PA
	// and re-translate at every entry, so a Stage-1 remap cannot leave
	// them stale.
	Code CodeInvalidator

	tlb   tlb
	stats TLBStats
}

// TLBStats counts translation outcomes. Invariant: every Translate call
// increments exactly one of Hits or Misses, so Hits+Misses equals the
// total number of translations — including ones that end in a permission
// fault (counted separately in PermFaults).
type TLBStats struct {
	Hits       uint64
	Misses     uint64
	PermFaults uint64
	Flushes    uint64
	WalkReads  uint64
	Stage2Only uint64
}

// New creates an MMU walking tables through phys.
func New(phys PhysReader, walkReadCycles uint64) *MMU {
	return &MMU{
		Phys:           phys,
		WalkReadCycles: walkReadCycles,
		TLBCapacity:    512,
	}
}

// Stats returns a copy of the TLB statistics.
func (m *MMU) Stats() TLBStats { return m.stats }

// FlushAll invalidates the whole TLB (TLBIALL).
func (m *MMU) FlushAll() {
	m.tlb.flushAll()
	m.stats.Flushes++
	if m.Code != nil {
		m.Code.InvalidateAll()
	}
	if m.Trace != nil {
		m.Trace.Emit(trace.Event{Kind: trace.EvTLBFlush, VCPU: -1, CPU: -1, Arg: trace.FlushScopeAll})
	}
}

// FlushASID invalidates the Stage-1 entries tagged with asid under vmid
// (TLBIASID, which the architecture scopes to the issuing VMID; the host's
// entries carry VMID 0). Other VMs' entries with the same ASID stay.
func (m *MMU) FlushASID(vmid, asid uint8) {
	m.tlb.flushWhere(func(k tlbKey, _ *tlbEntry) bool { return k.s1() && k.asid() == asid && k.vmid() == vmid })
	m.stats.Flushes++
	if m.Trace != nil {
		m.Trace.Emit(trace.Event{Kind: trace.EvTLBFlush, VCPU: -1, CPU: -1, Arg: trace.FlushScopeASID})
	}
}

// FlushVMID invalidates entries tagged with vmid (performed by the
// hypervisor when recycling VMIDs).
func (m *MMU) FlushVMID(vmid uint8) {
	m.tlb.flushWhere(func(k tlbKey, _ *tlbEntry) bool { return k.vmid() == vmid })
	m.stats.Flushes++
	if m.Code != nil {
		m.Code.InvalidateAll()
	}
	if m.Trace != nil {
		m.Trace.Emit(trace.Event{Kind: trace.EvTLBFlush, VM: vmid, VCPU: -1, CPU: -1, Arg: trace.FlushScopeVMID})
	}
}

// FlushS2Page invalidates entries of vmid that translate through the
// given IPA's page (TLBIIPAS2). The dirty-page log uses it after toggling
// a Stage-2 leaf's write permission so stale combined entries cannot let
// stores through unlogged (or keep faulting after the page was re-enabled).
func (m *MMU) FlushS2Page(vmid uint8, ipa uint64) {
	page := ipa >> PageShift
	m.tlb.flushWhere(func(k tlbKey, e *tlbEntry) bool {
		if k.vmid() != vmid || e.ipaPage != page {
			return false
		}
		if m.Code != nil {
			m.Code.InvalidatePhysPage(e.paPage)
		}
		return true
	})
	m.stats.Flushes++
	if m.Trace != nil {
		m.Trace.Emit(trace.Event{Kind: trace.EvTLBFlush, VM: vmid, VCPU: -1, CPU: -1, Arg: trace.FlushScopeS2Page})
	}
}

// insert fills the TLB with e under k (see tlb.insert).
func (m *MMU) insert(k tlbKey, e tlbEntry) {
	capacity := m.TLBCapacity
	if capacity <= 0 {
		capacity = 512
	}
	m.tlb.insert(k, e, capacity)
}

// Translate resolves va under ctx, returning the PA and walk cost or a
// fault. MMIO addresses translate like any other PA; whether the PA is RAM
// or a device is the bus's business.
func (m *MMU) Translate(ctx *Context, va uint32, at AccessType) (Result, *Fault) {
	r, f := m.translate(ctx, va, at)
	if f != nil && f.Kind == FaultPermission {
		m.stats.PermFaults++
	}
	return r, f
}

func (m *MMU) translate(ctx *Context, va uint32, at AccessType) (Result, *Fault) {
	var asid, vmid uint8
	if ctx.S1Enabled {
		asid = ctx.ASID
	}
	if ctx.S2Enabled {
		vmid = ctx.VMID
	}
	key := makeKey(va>>PageShift, asid, vmid, ctx.S1Enabled)
	if s := m.tlb.find(key); s != 0 {
		// A TLB hit that faults on permissions is still a hit: counting it
		// first keeps Hits+Misses equal to the number of translations.
		m.stats.Hits++
		e := &m.tlb.slots[s-1].e
		if f := checkPerms(e, ctx, va, at); f != nil {
			return Result{}, f
		}
		return Result{PA: e.paPage<<PageShift | uint64(va)&(PageSize-1), TLBHit: true}, nil
	}
	m.stats.Misses++

	var cycles uint64
	entry := tlbEntry{w: true, u: true, s2w: true}

	ipa := uint64(va)
	if ctx.S1Enabled {
		e1, c, f := m.walkStage1(ctx, va, at)
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
		e2, c, f := m.walkStage2(ctx, ipa, va, at)
		cycles += c
		if f != nil {
			return Result{}, f
		}
		pa = e2.paPage<<PageShift | ipa&(PageSize-1)
		// Stage-2 write permission is tracked separately from Stage-1's:
		// a later store through a read-inserted entry must raise a
		// Stage-2 fault (trapping to Hyp with the IPA), not a Stage-1
		// fault delivered to the guest. XN combines (most restrictive).
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

func checkPerms(e *tlbEntry, ctx *Context, va uint32, at AccessType) *Fault {
	// Stage-1 checks first, matching hardware walk order.
	if ctx.User && !e.u {
		return &Fault{Stage: 1, Kind: FaultPermission, Level: 2, VA: va, Access: at}
	}
	if at == Store && !e.w {
		return &Fault{Stage: 1, Kind: FaultPermission, Level: 2, VA: va, Access: at}
	}
	if at == Fetch && e.xn {
		return &Fault{Stage: 1, Kind: FaultPermission, Level: 2, VA: va, Access: at}
	}
	if at == Store && !e.s2w {
		ipa := e.ipaPage<<PageShift | uint64(va)&(PageSize-1)
		return &Fault{Stage: 2, Kind: FaultPermission, Level: 2, VA: va, IPA: ipa, Access: at}
	}
	return nil
}

// readDesc fetches one descriptor, translating its address through Stage-2
// first when required (the two-dimensional walk).
func (m *MMU) readDesc(ctx *Context, addr uint64, va uint32, at AccessType) (uint64, uint64, *Fault) {
	var cycles uint64
	pa := addr
	if ctx.S2Enabled {
		e2, c, f := m.walkStage2(ctx, addr, va, at)
		cycles += c
		if f != nil {
			return 0, cycles, f
		}
		pa = e2.paPage<<PageShift | addr&(PageSize-1)
	}
	v, err := m.Phys.Read64(pa)
	m.stats.WalkReads++
	cycles += m.WalkReadCycles
	if err != nil {
		return 0, cycles, &Fault{Stage: 1, Kind: FaultTranslation, Level: 1, VA: va, IPA: addr, Access: at}
	}
	return v, cycles, nil
}

func (m *MMU) walkStage1(ctx *Context, va uint32, at AccessType) (tlbEntry, uint64, *Fault) {
	base := ctx.TTBR0
	if ctx.TTBR1Base != 0 && va >= ctx.TTBR1Base {
		base = ctx.TTBR1
	}
	if ctx.Format == FormatHyp {
		// Hyp mode has a single page-table base register; the split
		// does not exist (§3.1: "Hyp mode uses a single page table
		// register and therefore cannot have direct access to the user
		// space portion of the address space").
		base = ctx.TTBR0
	}

	idx1 := uint64(va >> L1Shift)
	d1, c1, f := m.readDesc(ctx, base+idx1*8, va, at)
	cycles := c1
	if f != nil {
		return tlbEntry{}, cycles, f
	}
	if d1&DescValid == 0 {
		return tlbEntry{}, cycles, &Fault{Stage: 1, Kind: FaultTranslation, Level: 1, VA: va, Access: at}
	}
	if err := validateFormat(ctx.Format, d1); err != nil {
		return tlbEntry{}, cycles, &Fault{Stage: 1, Kind: FaultFormat, Level: 1, VA: va, Access: at}
	}
	if d1&DescTable == 0 {
		// 4 MiB block mapping.
		pa := d1&DescAddrMask | uint64(va)&(BlockSize-1)
		return tlbEntry{paPage: pa >> PageShift, w: d1&DescW != 0, u: d1&DescU != 0, xn: d1&DescXN != 0}, cycles, nil
	}

	idx2 := uint64(va>>PageShift) & (L2Entries - 1)
	d2, c2, f := m.readDesc(ctx, d1&DescAddrMask+idx2*8, va, at)
	cycles += c2
	if f != nil {
		return tlbEntry{}, cycles, f
	}
	if d2&DescValid == 0 {
		return tlbEntry{}, cycles, &Fault{Stage: 1, Kind: FaultTranslation, Level: 2, VA: va, Access: at}
	}
	if err := validateFormat(ctx.Format, d2); err != nil {
		return tlbEntry{}, cycles, &Fault{Stage: 1, Kind: FaultFormat, Level: 2, VA: va, Access: at}
	}
	pa := d2&DescAddrMask | uint64(va)&(PageSize-1)
	return tlbEntry{paPage: pa >> PageShift, w: d2&DescW != 0, u: d2&DescU != 0, xn: d2&DescXN != 0}, cycles, nil
}

func validateFormat(f Format, desc uint64) error {
	if f == FormatHyp {
		if desc&DescAF == 0 {
			return fmt.Errorf("hyp descriptor without mandated AF bit")
		}
		if desc&DescU != 0 {
			return fmt.Errorf("hyp descriptor with user bit")
		}
	}
	return nil
}

// walkStage2 translates an IPA through the Stage-2 tables. Stage-2 table
// descriptor addresses are real PAs, so this walk is one-dimensional.
func (m *MMU) walkStage2(ctx *Context, ipa uint64, va uint32, at AccessType) (tlbEntry, uint64, *Fault) {
	var cycles uint64
	read64 := func(pa uint64) (uint64, *Fault) {
		v, err := m.Phys.Read64(pa)
		m.stats.WalkReads++
		cycles += m.WalkReadCycles
		if err != nil {
			return 0, &Fault{Stage: 2, Kind: FaultTranslation, Level: 1, VA: va, IPA: ipa, Access: at}
		}
		return v, nil
	}

	idx1 := ipa >> L1Shift & (L1Entries - 1)
	d1, f := read64(ctx.VTTBR&DescAddrMask + idx1*8)
	if f != nil {
		return tlbEntry{}, cycles, f
	}
	if d1&DescValid == 0 {
		return tlbEntry{}, cycles, &Fault{Stage: 2, Kind: FaultTranslation, Level: 1, VA: va, IPA: ipa, Access: at}
	}
	var leaf uint64
	if d1&DescTable == 0 {
		leaf = d1
	} else {
		idx2 := ipa >> PageShift & (L2Entries - 1)
		d2, f := read64(d1&DescAddrMask + idx2*8)
		if f != nil {
			return tlbEntry{}, cycles, f
		}
		if d2&DescValid == 0 {
			return tlbEntry{}, cycles, &Fault{Stage: 2, Kind: FaultTranslation, Level: 2, VA: va, IPA: ipa, Access: at}
		}
		leaf = d2
	}
	if leaf&DescS2MemAttr == 0 {
		return tlbEntry{}, cycles, &Fault{Stage: 2, Kind: FaultFormat, Level: 2, VA: va, IPA: ipa, Access: at}
	}
	if at == Store && leaf&DescW == 0 {
		return tlbEntry{}, cycles, &Fault{Stage: 2, Kind: FaultPermission, Level: 2, VA: va, IPA: ipa, Access: at}
	}
	var pa uint64
	if leaf == d1 && d1&DescTable == 0 {
		pa = leaf&DescAddrMask | ipa&(BlockSize-1)
	} else {
		pa = leaf&DescAddrMask | ipa&(PageSize-1)
	}
	return tlbEntry{paPage: pa >> PageShift, w: leaf&DescW != 0, u: true, xn: leaf&DescXN != 0}, cycles, nil
}
