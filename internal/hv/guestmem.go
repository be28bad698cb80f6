package hv

import (
	"fmt"

	"kvmarm/internal/mmu"
)

// MemSlot is a guest-physical memory region backed lazily by host pages
// (KVM_SET_USER_MEMORY_REGION).
type MemSlot struct {
	IPABase uint64
	Size    uint64
}

// PageAllocator grants host page frames (the host kernel's allocator).
type PageAllocator interface {
	AllocPages(n int) (uint64, error)
}

// PhysMem is host-physical memory (the board's RAM).
type PhysMem interface {
	ReadBytes(addr uint64, dst []byte) error
	WriteBytes(addr uint64, src []byte) error
}

// GuestMem is the guest-physical memory bookkeeping all backends share:
// the slot list, lazy second-stage population, and the chunked
// user-space-style copies in and out of guest memory. Table is the
// second-stage page table (Stage-2 or EPT — the same two-dimensional walk
// model); Base.InitVM builds both for a VM.
type GuestMem struct {
	Table *mmu.Builder
	Alloc PageAllocator
	RAM   PhysMem
	Slots []MemSlot

	// FlushPage / FlushAll invalidate this VM's TLB entries after a
	// single-page permission change (a copy-on-write break) or a
	// whole-table one (a snapshot freeze). The GuestMem does not own
	// TLBs: the kit points these at the board's CPUs, and a bare GuestMem
	// (unit tests) leaves them nil.
	FlushPage func(ipa uint64)
	FlushAll  func()
}

// AddSlot registers a guest RAM slot. Like KVM_SET_USER_MEMORY_REGION it
// rejects zero-sized slots, slots overlapping an existing one, and slots
// whose end wraps past 2^64.
func (m *GuestMem) AddSlot(ipaBase, size uint64) error {
	if size == 0 {
		return fmt.Errorf("hv: zero-sized memory slot at %#x", ipaBase)
	}
	// A slot ending exactly at 2^64 (end == 0 after wrap) is legal; one
	// wrapping past it describes no coherent interval — the overlap check
	// below is overflow-safe and would happily accept the nonsense.
	if end := ipaBase + size; end != 0 && end < ipaBase {
		return fmt.Errorf("hv: memory slot [%#x,+%#x) wraps past 2^64", ipaBase, size)
	}
	for _, s := range m.Slots {
		// Overflow-safe interval overlap: [a,a+s) and [b,b+t) intersect
		// iff the lower base's size reaches past the higher base.
		var overlap bool
		if s.IPABase <= ipaBase {
			overlap = ipaBase-s.IPABase < s.Size
		} else {
			overlap = s.IPABase-ipaBase < size
		}
		if overlap {
			return fmt.Errorf("hv: memory slot [%#x,+%#x) overlaps existing [%#x,+%#x)",
				ipaBase, size, s.IPABase, s.Size)
		}
	}
	m.Slots = append(m.Slots, MemSlot{IPABase: ipaBase, Size: size})
	return nil
}

// InSlot reports whether ipa falls inside a registered RAM slot. The
// comparison avoids computing IPABase+Size, which overflows for a slot
// ending at 2^64.
func (m *GuestMem) InSlot(ipa uint64) bool {
	for _, s := range m.Slots {
		if ipa >= s.IPABase && ipa-s.IPABase < s.Size {
			return true
		}
	}
	return false
}

// EnsureMapped populates the second-stage mapping for the page containing
// ipa (the host/QEMU touching guest memory faults it in just like the
// guest would) and returns the backing PA. An IPA outside every slot never
// touches the table.
func (m *GuestMem) EnsureMapped(ipa uint64) (uint64, error) {
	if !m.InSlot(ipa) {
		return 0, fmt.Errorf("hv: IPA %#x not in any memory slot", ipa)
	}
	if ipa < 1<<32 {
		if pa, ok, err := m.Table.Lookup(uint32(ipa) &^ (mmu.PageSize - 1)); err != nil {
			return 0, err
		} else if ok {
			return pa | (ipa & (mmu.PageSize - 1)), nil
		}
	}
	return m.allocMap(ipa)
}

// allocMap backs the unmapped page containing ipa, which the caller has
// checked lies in a slot, with a fresh host frame and returns the PA ipa
// now translates to. It is the one allocate-and-map site, for host-side
// accesses and guest faults alike, so it carries the range check: a slot
// may sit above 4 GiB, but the table maps 32-bit IPAs, and a truncated
// address would remap an unrelated low page to the blank frame.
func (m *GuestMem) allocMap(ipa uint64) (uint64, error) {
	if ipa >= 1<<32 {
		return 0, fmt.Errorf("hv: IPA %#x beyond the 32-bit translation range", ipa)
	}
	pa, err := m.Alloc.AllocPages(1)
	if err != nil {
		return 0, err
	}
	if err := m.Table.MapPage(uint32(ipa)&^(mmu.PageSize-1), pa, mmu.MapFlags{W: true}); err != nil {
		return 0, err
	}
	return pa | (ipa & (mmu.PageSize - 1)), nil
}

// Write copies data into guest-physical memory, populating mappings as
// needed. A host-side write bypasses Stage-2 permission faults, so pages
// still mapped to a shared copy-on-write frame are privatized here first —
// writing through the shared PA would leak into every sibling VM — and
// each touched page is reported to the dirty log, which would otherwise
// never see host-side writes: a frame a device DMAs into guest RAM during
// pre-copy must reach the migration destination like any guest store.
func (m *GuestMem) Write(ipa uint64, data []byte) error {
	for off := 0; off < len(data); {
		cur := ipa + uint64(off)
		pa, err := m.EnsureMapped(cur)
		if err != nil {
			return err
		}
		if m.Table.IsCowShared(cur) {
			if _, err := m.breakCow(cur); err != nil {
				return err
			}
			if pa, err = m.EnsureMapped(cur); err != nil {
				return err
			}
		}
		n := int(mmu.PageSize - cur&(mmu.PageSize-1))
		if n > len(data)-off {
			n = len(data) - off
		}
		if err := m.RAM.WriteBytes(pa, data[off:off+n]); err != nil {
			return err
		}
		m.Table.MarkDirty(cur)
		off += n
	}
	return nil
}

// breakCow ends copy-on-write sharing of the page containing ipa, if it is
// shared — private copy, or in-place reclaim for the last sharer — and
// shoots down the page's TLB entries: the leaf went from read-only to
// writable, possibly on a new frame. It reports whether the fault was a
// sharing break. The one CowFault site, for host-side writes and guest
// faults alike.
func (m *GuestMem) breakCow(ipa uint64) (bool, error) {
	handled, err := m.Table.CowFault(ipa)
	if handled && m.FlushPage != nil {
		m.FlushPage(ipa)
	}
	return handled, err
}

// FreezeCowShared write-protects every mapped RAM-slot page and registers
// its frame in pool as copy-on-write shared (snapshot capture). Device
// windows mapped in the same table are excluded by the slot filter, like
// the dirty log. Flushes the VM's TLBs through FlushAll when set. Returns
// the number of pages frozen.
func (m *GuestMem) FreezeCowShared(pool *mmu.CowPool) (int, error) {
	n, err := m.Table.FreezeCow(pool, m.InSlot)
	if err != nil {
		return 0, err
	}
	if m.FlushAll != nil {
		m.FlushAll()
	}
	return n, nil
}

// AdoptCowPages maps each snapshot frame (IPA page → frame PA) read-only
// into this VM's table as a copy-on-write sharer (the fork destination
// side). The pages must be inside registered slots and not mapped yet; no
// TLB flush is needed — a fresh VM has no cached translations.
func (m *GuestMem) AdoptCowPages(pool *mmu.CowPool, frames map[uint64]uint64) error {
	for page, pa := range frames {
		if !m.InSlot(page) {
			return fmt.Errorf("hv: snapshot page %#x outside the destination's memory slots", page)
		}
		if page >= 1<<32 {
			return fmt.Errorf("hv: snapshot page %#x beyond the 32-bit translation range", page)
		}
		if err := m.Table.AdoptCowPage(pool, uint32(page), pa); err != nil {
			return err
		}
	}
	return nil
}

// StartDirtyLog write-protects every mapped RAM-slot page and starts the
// Stage-2 dirty-page log (migration pre-copy). Device windows mapped in
// the same table (e.g. the GICV page) are excluded by the slot filter.
// The backend must flush its CPUs' TLBs afterwards. Returns the number of
// pages protected.
func (m *GuestMem) StartDirtyLog() (int, error) {
	return m.Table.EnableDirtyLog(m.InSlot)
}

// FetchDirtyLog drains the dirty-page set, re-protecting the drained
// pages for the next round. The backend must flush stale TLB entries for
// the returned pages.
func (m *GuestMem) FetchDirtyLog() ([]uint64, error) {
	return m.Table.CollectDirty()
}

// StopDirtyLog ends dirty logging, restoring write access everywhere.
func (m *GuestMem) StopDirtyLog() error {
	return m.Table.DisableDirtyLog()
}

// MappedPages lists every RAM-slot page currently mapped in the table —
// exactly the pages a full migration copy must transfer (untouched pages
// have no backing frame yet and read as zero on both sides).
func (m *GuestMem) MappedPages() ([]uint64, error) {
	all, err := m.Table.MappedPages()
	if err != nil {
		return nil, err
	}
	pages := all[:0]
	for _, p := range all {
		if m.InSlot(p) {
			pages = append(pages, p)
		}
	}
	return pages, nil
}

// Read copies guest-physical memory out.
func (m *GuestMem) Read(ipa uint64, n int) ([]byte, error) {
	out := make([]byte, n)
	for off := 0; off < n; {
		pa, err := m.EnsureMapped(ipa + uint64(off))
		if err != nil {
			return nil, err
		}
		chunk := int(mmu.PageSize - (ipa+uint64(off))&(mmu.PageSize-1))
		if chunk > n-off {
			chunk = n - off
		}
		if err := m.RAM.ReadBytes(pa, out[off:off+chunk]); err != nil {
			return nil, err
		}
		off += chunk
	}
	return out, nil
}
