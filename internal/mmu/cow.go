package mmu

import (
	"errors"
	"fmt"
)

// Copy-on-write page sharing for snapshot/fork fleets. FreezeCow clears
// DescW on every mapped, writable page leaf the filter selects — the same
// write-protect machinery the dirty log rides — and registers each backing
// frame in a CowPool shared by every table forked from the snapshot.
// AdoptCowPage maps a frozen frame read-only into a clone's table. The
// first store through any sharer takes a Stage-2/EPT permission fault; the
// backend's fault handler calls CowFault, which gives the faulting table a
// private copy of the frame (or reclaims the frame in place when it is the
// last sharer) and restores write access.
//
// The Builder does not own TLBs. As with the dirty log, the caller must
// invalidate stale entries after FreezeCow (every CPU, whole VMID) and
// after a CowFault that returns true (the faulting page), or cached write
// permissions let stores reach the shared frame.

// FrameCopier is table memory that copies physical memory in place. Stage-2
// tables live in host RAM (mem.Physical provides it), and CowFault breaks a
// sharing with one frame copy through it.
type FrameCopier interface {
	Copy(dst, src, n uint64) error
}

// ErrNoFrameCopier is returned by CowFault when a table's memory cannot
// copy a frame (it does not implement FrameCopier).
var ErrNoFrameCopier = errors.New("mmu: copy-on-write break on table memory without an in-place frame copy")

// CowPool tracks the sharer count of every copy-on-write frame across the
// tables forked from one snapshot. A frame's count includes each table
// still mapping it read-only plus any explicit Retain (a snapshot object
// keeps one so frames stay immutable while it can still be forked).
type CowPool struct {
	ref map[uint64]int
}

// NewCowPool builds an empty pool.
func NewCowPool() *CowPool { return &CowPool{ref: make(map[uint64]int)} }

// Retain adds an extra reference to pa, pinning the frame's contents: a
// sole-sharer table can no longer reclaim it in place.
func (p *CowPool) Retain(pa uint64) { p.ref[pa]++ }

// Release drops a Retain reference.
func (p *CowPool) Release(pa uint64) {
	if p.ref[pa] <= 1 {
		delete(p.ref, pa)
		return
	}
	p.ref[pa]--
}

// Refs returns pa's current sharer count.
func (p *CowPool) Refs(pa uint64) int { return p.ref[pa] }

// SharedFrames counts frames still referenced by anyone.
func (p *CowPool) SharedFrames() int { return len(p.ref) }

// CowSharing reports whether this table has copy-on-write state: pages
// still shared, or pages broken whose stale-TLB faults may still arrive.
func (b *Builder) CowSharing() bool { return len(b.cow) != 0 || len(b.cowBroken) != 0 }

// CowSharedPages counts this table's pages still mapped to shared frames.
func (b *Builder) CowSharedPages() int { return len(b.cow) }

// CowBrokenPages counts this table's pages privatized by CowFault.
func (b *Builder) CowBrokenPages() int { return len(b.cowBroken) }

// CowPages returns a copy of the table's still-shared pages as IPA page →
// shared frame PA (a snapshot's fork inventory).
func (b *Builder) CowPages() map[uint64]uint64 {
	out := make(map[uint64]uint64, len(b.cow))
	for page, pa := range b.cow {
		out[uint64(page)] = pa
	}
	return out
}

// SharePool returns the pool this table's shared frames are counted in
// (nil before the first freeze/adoption).
func (b *Builder) SharePool() *CowPool { return b.cowPool }

// IsCowShared reports whether the page containing ipa is still mapped to a
// shared frame in this table.
func (b *Builder) IsCowShared(ipa uint64) bool {
	if ipa >= 1<<32 {
		return false
	}
	_, ok := b.cow[uint32(ipa)&^(PageSize-1)]
	return ok
}

// FreezeCow write-protects every currently mapped, writable page leaf
// selected by filter and registers its frame in pool as shared. It returns
// the number of pages frozen. Freezing is an error while the dirty log is
// active (both want the DescW bit, with different bookkeeping), and —
// like the dirty log — over a filtered-in block mapping. Re-freezing adds
// pages mapped or privatized since the previous freeze; all freezes of one
// table must use the same pool.
func (b *Builder) FreezeCow(pool *CowPool, filter func(ipa uint64) bool) (int, error) {
	if b.log != nil {
		return 0, fmt.Errorf("mmu: cannot freeze copy-on-write state while the dirty log is active")
	}
	if b.cowPool != nil && b.cowPool != pool {
		return 0, fmt.Errorf("mmu: table already shares copy-on-write frames through a different pool")
	}
	if b.cow == nil {
		b.cow = make(map[uint32]uint64)
		b.cowBroken = make(map[uint32]bool)
	}
	n := 0
	for idx1 := uint64(0); idx1 < L1Entries; idx1++ {
		d1, err := b.Mem.Read64(b.Root + idx1*8)
		if err != nil {
			return 0, err
		}
		if d1&DescValid == 0 {
			continue
		}
		if d1&DescTable == 0 {
			for off := uint64(0); off < BlockSize; off += PageSize {
				if filter(idx1<<L1Shift | off) {
					return 0, fmt.Errorf("mmu: copy-on-write freeze over 4MiB block mapping at %#x", idx1<<L1Shift)
				}
			}
			continue
		}
		l2 := d1 & DescAddrMask
		for idx2 := uint64(0); idx2 < L2Entries; idx2++ {
			addr := l2 + idx2*8
			d2, err := b.Mem.Read64(addr)
			if err != nil {
				return 0, err
			}
			if d2&DescValid == 0 || d2&DescW == 0 {
				continue // unmapped, or already read-only (incl. still-shared pages)
			}
			page := uint32(idx1<<L1Shift | idx2<<PageShift)
			if !filter(uint64(page)) {
				continue
			}
			if err := b.Mem.Write64(addr, d2&^DescW); err != nil {
				return 0, err
			}
			pa := d2 & DescAddrMask
			b.cow[page] = pa
			delete(b.cowBroken, page)
			pool.ref[pa]++
			n++
		}
	}
	b.cowPool = pool
	return n, nil
}

// AdoptCowPage maps the shared frame pa read-only at page in this (clone)
// table and registers the table as a sharer. The page must not be mapped
// yet, and the dirty log must be off.
func (b *Builder) AdoptCowPage(pool *CowPool, page uint32, pa uint64) error {
	if b.log != nil {
		return fmt.Errorf("mmu: cannot adopt copy-on-write pages while the dirty log is active")
	}
	if b.cowPool != nil && b.cowPool != pool {
		return fmt.Errorf("mmu: table already shares copy-on-write frames through a different pool")
	}
	if page&(PageSize-1) != 0 {
		return fmt.Errorf("mmu: copy-on-write adoption of unaligned page %#x", page)
	}
	if _, ok, err := b.Lookup(page); err != nil {
		return err
	} else if ok {
		return fmt.Errorf("mmu: copy-on-write adoption over existing mapping at %#x", page)
	}
	if err := b.MapPage(page, pa, MapFlags{W: false}); err != nil {
		return err
	}
	if b.cow == nil {
		b.cow = make(map[uint32]uint64)
		b.cowBroken = make(map[uint32]bool)
	}
	b.cow[page] = pa
	pool.ref[pa]++
	b.cowPool = pool
	return nil
}

// CowFault handles a Stage-2/EPT permission fault at ipa for a table with
// copy-on-write state. If the page is still shared it breaks the sharing —
// copying the frame into a fresh private page from b.Pool, or reclaiming
// it in place when this table holds the last reference — restores write
// access, and returns true; the caller re-enters the guest after flushing
// the page's TLB entries. A page already privatized returns true only when
// its leaf is writable (a stale read-only TLB entry — ours, idempotent);
// a leaf someone else re-protected (the dirty log) is not claimed. While
// the dirty log is active, a broken page is recorded dirty, matching the
// map-during-logging rule.
func (b *Builder) CowFault(ipa uint64) (bool, error) {
	if !b.CowSharing() || ipa >= 1<<32 {
		return false, nil
	}
	page := uint32(ipa) &^ (PageSize - 1)
	pa, shared := b.cow[page]
	if !shared {
		if !b.cowBroken[page] {
			return false, nil
		}
		d2, err := b.leaf(page)
		if err != nil {
			return false, err
		}
		return d2&DescValid != 0 && d2&DescW != 0, nil
	}
	if b.cowPool.ref[pa] <= 1 {
		// Last sharer: the frame is private in all but name; reclaim it.
		delete(b.cowPool.ref, pa)
		if err := b.setLeafW(page, true); err != nil {
			return false, err
		}
	} else {
		copier, ok := b.Mem.(FrameCopier)
		if !ok {
			return false, ErrNoFrameCopier
		}
		newPA, err := b.Pool.AllocPages(1)
		if err != nil {
			return false, err
		}
		if err := copier.Copy(newPA, pa, PageSize); err != nil {
			return false, err
		}
		d2, err := b.leaf(page)
		if err != nil {
			return false, err
		}
		if d2&DescValid == 0 {
			return false, fmt.Errorf("mmu: copy-on-write page %#x unmapped under sharing", page)
		}
		leafAddr, err := b.leafAddr(page)
		if err != nil {
			return false, err
		}
		if err := b.Mem.Write64(leafAddr, (d2&^DescAddrMask)|(newPA&DescAddrMask)|DescW); err != nil {
			return false, err
		}
		b.cowPool.ref[pa]--
		// The sharing break remapped this IPA from the frozen frame to a
		// private copy: drop cached code decoded from either frame (the
		// copy already reported newPA through mem.OnWrite, but the old
		// frame's blocks are stale for THIS table now too).
		if b.Code != nil {
			b.Code.InvalidatePhysPage(pa >> PageShift)
			b.Code.InvalidatePhysPage(newPA >> PageShift)
		}
	}
	delete(b.cow, page)
	b.cowBroken[page] = true
	if b.log != nil && b.log.filter(uint64(page)) {
		b.log.dirty[page] = true
	}
	return true, nil
}

// leafAddr returns the physical address of the L2 descriptor for page.
func (b *Builder) leafAddr(page uint32) (uint64, error) {
	idx1 := uint64(page >> L1Shift)
	d1, err := b.Mem.Read64(b.Root + idx1*8)
	if err != nil {
		return 0, err
	}
	if d1&DescValid == 0 || d1&DescTable == 0 {
		return 0, fmt.Errorf("mmu: no page leaf at %#x", page)
	}
	idx2 := uint64(page>>PageShift) & (L2Entries - 1)
	return d1&DescAddrMask + idx2*8, nil
}

// leaf reads the L2 descriptor for page (zero when the L1 slot is empty).
func (b *Builder) leaf(page uint32) (uint64, error) {
	addr, err := b.leafAddr(page)
	if err != nil {
		return 0, nil
	}
	return b.Mem.Read64(addr)
}
