package kernel

import (
	"fmt"

	"kvmarm/internal/arm"
	"kvmarm/internal/mmu"
)

// PageAllocator hands out page frames from the kernel's physical space
// with a free list, like a degenerate buddy allocator. It also implements
// mmu.PageAlloc for page-table construction.
type PageAllocator struct {
	base, size uint64
	next       uint64
	free       []uint64
	// freeBlocks holds returned multi-page runs by size, so page-table
	// allocations (2-page blocks) reuse frames too — essential inside a
	// VM, where reused guest-physical frames keep their Stage-2
	// mappings and fresh ones fault.
	freeBlocks map[int][]uint64
	allocated  uint64
	churn      uint64
}

// NewPageAllocator manages [base, base+size).
func NewPageAllocator(base, size uint64) *PageAllocator {
	return &PageAllocator{base: base, size: size, next: base, freeBlocks: make(map[int][]uint64)}
}

// AllocPages implements mmu.PageAlloc: n fresh page frames, contiguous.
// Like a real kernel's page allocator under page-cache churn, it does not
// recycle perfectly: periodically a fresh frame is handed out even when
// freed ones exist, so long-running fork/fault loops keep touching some
// never-seen (guest-)physical memory — the source of the residual Stage-2
// fault rate virtualized workloads pay.
func (a *PageAllocator) AllocPages(n int) (uint64, error) {
	if n == 1 {
		a.churn++
	}
	if n == 1 && len(a.free) > 0 && (a.churn%12 != 0 || a.next+mmu.PageSize > a.base+a.size) {
		pa := a.free[len(a.free)-1]
		a.free = a.free[:len(a.free)-1]
		a.allocated++
		return pa, nil
	}
	if n == 1 && a.next+mmu.PageSize > a.base+a.size && len(a.free) > 0 {
		pa := a.free[len(a.free)-1]
		a.free = a.free[:len(a.free)-1]
		a.allocated++
		return pa, nil
	}
	if blocks := a.freeBlocks[n]; len(blocks) > 0 {
		pa := blocks[len(blocks)-1]
		a.freeBlocks[n] = blocks[:len(blocks)-1]
		a.allocated += uint64(n)
		return pa, nil
	}
	need := uint64(n) * mmu.PageSize
	if a.next+need > a.base+a.size {
		return 0, fmt.Errorf("kernel: out of memory (%d pages requested)", n)
	}
	pa := a.next
	a.next += need
	a.allocated += uint64(n)
	return pa, nil
}

// FreeBlock returns a contiguous n-page run to the allocator.
func (a *PageAllocator) FreeBlock(pa uint64, n int) {
	if n == 1 {
		a.FreePage(pa)
		return
	}
	a.freeBlocks[n] = append(a.freeBlocks[n], pa)
	if a.allocated >= uint64(n) {
		a.allocated -= uint64(n)
	}
}

// FreePage returns one page to the free list.
func (a *PageAllocator) FreePage(pa uint64) {
	a.free = append(a.free, pa)
	if a.allocated > 0 {
		a.allocated--
	}
}

// Allocated reports pages currently handed out.
func (a *PageAllocator) Allocated() uint64 { return a.allocated }

// Limit returns the top of the managed range.
func (a *PageAllocator) Limit() uint64 { return a.base + a.size }

// Size returns the managed size.
func (a *PageAllocator) Size() uint64 { return a.size }

// AddrSpace is a process's user address space: a private TTBR0 table plus
// an ASID. Kernel mappings come from the shared TTBR1 table.
type AddrSpace struct {
	Table *mmu.Builder
	ASID  uint8
	// pages tracks user pages for fork copies and teardown.
	pages map[uint32]uint64 // user VA -> kernel-physical frame
	// ro marks pages currently write-protected (lmbench's prot-fault).
	ro map[uint32]bool
	// brk is the next demand-zero address for Grow.
	brk uint32
}

// NewAddrSpace creates an empty user address space. ASIDs count up from
// 1 and skip 0 when they wrap.
func (k *Kernel) NewAddrSpace() (*AddrSpace, error) {
	t, err := mmu.NewBuilder(mmu.TableKernel, k.Mem, k.Alloc)
	if err != nil {
		return nil, err
	}
	k.nextASID++
	if k.nextASID == 0 {
		k.nextASID = 1
	}
	return &AddrSpace{Table: t, ASID: k.nextASID, pages: make(map[uint32]uint64), ro: make(map[uint32]bool), brk: 0x0010_0000}, nil
}

// GetUserPages allocates and maps n pages at va in the address space —
// the kernel service the highvisor reuses for Stage-2 faults (§3.3: "by
// simply calling an existing kernel function, such as get_user_pages").
func (k *Kernel) GetUserPages(as *AddrSpace, va uint32, n int) (uint64, error) {
	var first uint64
	for i := 0; i < n; i++ {
		pa, err := k.Alloc.AllocPages(1)
		if err != nil {
			return 0, err
		}
		if i == 0 {
			first = pa
		}
		if err := as.Table.MapPage(va+uint32(i)*mmu.PageSize, pa, mmu.MapFlags{W: true, U: true}); err != nil {
			return 0, err
		}
		as.pages[va+uint32(i)*mmu.PageSize] = pa
	}
	return first, nil
}

// handleFault services a user page fault: demand-allocate the page if the
// fault address is in the process's legitimate range, else kill it.
func (k *Kernel) handleFault(cpu int, c *arm.CPU, e *arm.Exception) {
	s := k.scheds[cpu]
	p := s.curr
	if p == nil || p.AS == nil || e.FaultVA >= UserSplit {
		k.killCurrent(cpu, c, fmt.Sprintf("bad fault at %#x", e.FaultVA))
		return
	}
	va := e.FaultVA &^ (mmu.PageSize - 1)
	if pa, mapped := p.AS.pages[va]; mapped && p.AS.ro[va] {
		// Protection fault on a write-protected page: the lmbench
		// prot-fault path — deliver the "signal" (modeled as handler
		// work) and make the page writable again.
		delete(p.AS.ro, va)
		if err := p.AS.Table.MapPage(va, pa, mmu.MapFlags{W: true, U: true}); err != nil {
			k.killCurrent(cpu, c, "remap")
			return
		}
		c.FlushASID(p.AS.ASID)
		c.Charge(c.Cost.TLBFlushASID)
		c.Charge(k.Cost.SignalWork) // signal delivery + handler
		p.ProtFaults++
		c.ERET()
		return
	}
	if _, err := k.GetUserPages(p.AS, va, 1); err != nil {
		k.killCurrent(cpu, c, "oom")
		return
	}
	p.Faults++
	c.Charge(k.Cost.FaultWork + k.Cost.PageZero)
	// Retry the access: return to the faulting instruction.
	c.ERET()
}

// ProtectPage write-protects an existing user page so the next store takes
// a protection fault (lmbench lat_sig -P prot analogue).
func (k *Kernel) ProtectPage(c *arm.CPU, as *AddrSpace, va uint32) {
	va &^= mmu.PageSize - 1
	pa, ok := as.pages[va]
	if !ok {
		return
	}
	as.ro[va] = true
	_ = as.Table.MapPage(va, pa, mmu.MapFlags{W: false, U: true})
	c.FlushASID(as.ASID)
	c.Charge(c.Cost.TLBFlushASID + k.Cost.SyscallWork) // mprotect syscall
}

// switchAddressSpace installs as on c: the Stage-1 page table base write
// that a VM performs *without trapping* (§3.2).
func (k *Kernel) switchAddressSpace(c *arm.CPU, as *AddrSpace) {
	if as == nil {
		return
	}
	c.WriteSys64(arm.SysTTBR0Lo, 0, as.Table.Root)
	c.WriteSys(arm.SysCONTEXTIDR, 0, uint32(as.ASID))
}

// CopyAddrSpace duplicates a user address space page by page (fork).
func (k *Kernel) CopyAddrSpace(cpu int, src *AddrSpace) (*AddrSpace, error) {
	dst, err := k.NewAddrSpace()
	if err != nil {
		return nil, err
	}
	c := k.CPU(cpu)
	for va := range src.pages {
		if _, err := k.GetUserPages(dst, va, 1); err != nil {
			return nil, err
		}
		// The copy: real kernel accesses to the source and destination
		// frames (so a VM pays the two-dimensional walk on misses),
		// plus the bulk cached-copy cost.
		if sp, ok := src.pages[va]; ok {
			if v, err := k.Mem.Read64(sp); err == nil {
				_ = k.Mem.Write64(dst.pages[va], v)
			}
		}
		c.Charge(k.Cost.PageZero)
	}
	return dst, nil
}

// FreeAddrSpace returns a process's pages — including its page-table
// pages — to the allocator, so subsequent processes reuse the same frames
// (and, inside a VM, the same already-mapped guest-physical pages).
func (k *Kernel) FreeAddrSpace(as *AddrSpace) {
	for _, pa := range as.pages {
		k.Alloc.FreePage(pa)
	}
	// Table pages were allocated as 2-page runs; return them as such.
	tp := as.Table.TablePages()
	for i := 0; i+1 < len(tp); i += 2 {
		k.Alloc.FreeBlock(tp[i], 2)
	}
	as.pages = make(map[uint32]uint64)
}

// UnmapUserRange unmaps and frees n pages starting at va (munmap): the
// frames return to the allocator for reuse, and the stale translations are
// flushed.
func (k *Kernel) UnmapUserRange(c *arm.CPU, as *AddrSpace, va uint32, n int) {
	for i := 0; i < n; i++ {
		a := va + uint32(i)*mmu.PageSize
		if pa, ok := as.pages[a]; ok {
			_ = as.Table.Unmap(a)
			k.Alloc.FreePage(pa)
			delete(as.pages, a)
			delete(as.ro, a)
		}
	}
	c.FlushASID(as.ASID)
	c.Charge(c.Cost.TLBFlushASID + k.Cost.SyscallWork)
}

// TouchUserPage performs a real store through the MMU at va in the current
// address space, faulting naturally: Stage-1 faults reach handleFault,
// and, inside a VM, fresh frames additionally take Stage-2 faults to the
// hypervisor. Workload bodies use it to generate honest memory behaviour.
func (k *Kernel) TouchUserPage(c *arm.CPU, va uint32) {
	v := uint64(va)
	for tries := 0; tries < 4; tries++ {
		if taken := c.Access(va, 4, mmu.Store, &v, true, 0); !taken {
			return
		}
		// A fault was taken and serviced (stage-1 by this kernel,
		// stage-2 by the hypervisor); retry the access.
	}
}
