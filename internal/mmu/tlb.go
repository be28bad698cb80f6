package mmu

import "math/bits"

// tlbKey names one TLB entry, packed into one word: the page number in bits
// 0-31 (a VA page, or an IPA page when Stage-1 is off), the ASID in bits
// 32-39, the VMID in bits 40-47 and bit 48 set when Stage-1 participated
// (so the ASID is meaningful).
type tlbKey uint64

const (
	keyASIDShift = 32
	keyVMIDShift = 40
	keyS1Bit     = tlbKey(1) << 48
	// freeKey marks an unused slot; no packed key has bits above 48 set.
	freeKey = ^tlbKey(0)
)

func makeKey(page uint32, asid, vmid uint8, s1 bool) tlbKey {
	k := tlbKey(page) | tlbKey(asid)<<keyASIDShift | tlbKey(vmid)<<keyVMIDShift
	if s1 {
		k |= keyS1Bit
	}
	return k
}

func (k tlbKey) asid() uint8 { return uint8(k >> keyASIDShift) }
func (k tlbKey) vmid() uint8 { return uint8(k >> keyVMIDShift) }
func (k tlbKey) s1() bool    { return k&keyS1Bit != 0 }

type tlbEntry struct {
	paPage uint64
	// ipaPage is the intermediate physical page the entry translates
	// through (equal to paPage when Stage-2 is off). Stage-2 permission
	// faults and per-IPA invalidation key off it.
	ipaPage  uint64
	w, u, xn bool // Stage-1 permissions (w true when Stage-1 is off)
	s2w      bool // Stage-2 write permission (true when Stage-2 is off)
}

// tlbSlot is one resident entry (key != freeKey) or one free slot, which
// then sits on the free list through next.
type tlbSlot struct {
	key        tlbKey
	e          tlbEntry
	prev, next int32 // FIFO neighbours (older, newer) as slot+1; 0 at either end
}

// tlb is the unified TLB: a dense slot array whose resident slots are
// threaded oldest-to-newest by intrusive links (the FIFO eviction order),
// a free list recycling the slots that flushes empty, and an open-addressed
// index (linear probing, at most half full) from the packed key to its
// slot. Lookup, insert and eviction are O(1); a flush visits the slot
// array once and never rebuilds anything. Links, list ends and index
// buckets all hold slot+1, so 0 means "none" and the zero value is an empty
// TLB.
type tlb struct {
	slots      []tlbSlot
	free       int32 // first free slot
	head, tail int32 // oldest and newest resident slot
	n          int   // resident entries
	// index is a power-of-two bucket array; shift is 64 - log2(len(index)).
	index []int32
	shift uint
}

func (t *tlb) bucket(k tlbKey) int {
	return int(uint64(k) * 0x9E3779B97F4A7C15 >> t.shift)
}

// find returns k's slot+1, or 0.
func (t *tlb) find(k tlbKey) int32 {
	if t.n == 0 {
		return 0
	}
	mask := len(t.index) - 1
	for b := t.bucket(k); ; b = (b + 1) & mask {
		s := t.index[b]
		if s == 0 || t.slots[s-1].key == k {
			return s
		}
	}
}

// insert stores e under k. A resident k is replaced in place, keeping its
// FIFO position; otherwise, with capacity entries already resident, the
// oldest entry is evicted first.
func (t *tlb) insert(k tlbKey, e tlbEntry, capacity int) {
	if s := t.find(k); s != 0 {
		t.slots[s-1].e = e
		return
	}
	if t.n >= capacity {
		t.remove(t.head)
	}
	if 2*(t.n+1) > len(t.index) {
		t.grow()
	}
	s := t.free
	if s != 0 {
		t.free = t.slots[s-1].next
	} else {
		t.slots = append(t.slots, tlbSlot{})
		s = int32(len(t.slots))
	}
	t.slots[s-1] = tlbSlot{key: k, e: e, prev: t.tail}
	if t.tail != 0 {
		t.slots[t.tail-1].next = s
	} else {
		t.head = s
	}
	t.tail = s
	t.n++
	t.file(k, s)
}

// file puts slot+1 s in the first empty bucket of k's probe chain.
func (t *tlb) file(k tlbKey, s int32) {
	mask := len(t.index) - 1
	b := t.bucket(k)
	for t.index[b] != 0 {
		b = (b + 1) & mask
	}
	t.index[b] = s
}

// grow doubles the index (16 buckets at first) and re-files every
// resident slot.
func (t *tlb) grow() {
	size := max(16, 2*len(t.index))
	t.index = make([]int32, size)
	t.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	for i := range t.slots {
		if k := t.slots[i].key; k != freeKey {
			t.file(k, int32(i)+1)
		}
	}
}

// remove evicts resident slot+1 s: unlinks it from the FIFO order, drops it
// from the index and puts it on the free list.
func (t *tlb) remove(s int32) {
	sl := &t.slots[s-1]
	if sl.prev != 0 {
		t.slots[sl.prev-1].next = sl.next
	} else {
		t.head = sl.next
	}
	if sl.next != 0 {
		t.slots[sl.next-1].prev = sl.prev
	} else {
		t.tail = sl.prev
	}
	// Backward-shift deletion: close the gap so every probe chain stays
	// unbroken without tombstones.
	mask := len(t.index) - 1
	hole := t.bucket(sl.key)
	for t.index[hole] != s {
		hole = (hole + 1) & mask
	}
	for b := (hole + 1) & mask; t.index[b] != 0; b = (b + 1) & mask {
		home := t.bucket(t.slots[t.index[b]-1].key)
		// The key at b may move back into the hole unless its home
		// bucket lies cyclically in (hole, b].
		if (b-home)&mask >= (b-hole)&mask {
			t.index[hole] = t.index[b]
			hole = b
		}
	}
	t.index[hole] = 0
	sl.key = freeKey
	sl.prev = 0
	sl.next = t.free
	t.free = s
	t.n--
}

// flushAll empties the TLB in place: the slot array and index keep their
// storage.
func (t *tlb) flushAll() {
	t.slots = t.slots[:0]
	t.free, t.head, t.tail, t.n = 0, 0, 0, 0
	clear(t.index)
}

// flushWhere evicts every resident entry for which match reports true,
// visiting the slot array once. match sees the entry before it is freed.
func (t *tlb) flushWhere(match func(k tlbKey, e *tlbEntry) bool) {
	for i := range t.slots {
		sl := &t.slots[i]
		if sl.key != freeKey && match(sl.key, &sl.e) {
			t.remove(int32(i) + 1)
		}
	}
}
