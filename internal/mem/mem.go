// Package mem provides the simulated physical memory for a board.
//
// Physical memory is a flat byte array indexed by physical address minus the
// RAM base. All wider accesses are little-endian, matching the ARMv7
// configuration used by the paper's Arndale board.
package mem

import (
	"encoding/binary"
	"fmt"
)

// Physical is a contiguous bank of RAM starting at Base.
type Physical struct {
	Base uint64
	data []byte

	// OnWrite, when non-nil, is called after every successful mutation
	// with the written physical range. Every RAM write funnels through
	// here — guest stores, host kernel writes, DMA, page-table updates,
	// migration copies — which makes this the authoritative coherence
	// hook for caches of memory contents (the decoded basic-block cache
	// invalidates through it).
	OnWrite func(pa, n uint64)
}

// New allocates size bytes of RAM based at base.
func New(base, size uint64) *Physical {
	return &Physical{Base: base, data: make([]byte, size)}
}

// Size returns the number of bytes of RAM.
func (p *Physical) Size() uint64 { return uint64(len(p.data)) }

// Contains reports whether [addr, addr+n) lies entirely inside RAM.
func (p *Physical) Contains(addr, n uint64) bool {
	return addr >= p.Base && addr+n >= addr && addr+n <= p.Base+p.Size()
}

func (p *Physical) index(addr, n uint64) (uint64, error) {
	if !p.Contains(addr, n) {
		return 0, fmt.Errorf("mem: physical access [%#x,+%d) outside RAM [%#x,+%#x)", addr, n, p.Base, p.Size())
	}
	return addr - p.Base, nil
}

// Read8 reads one byte of RAM.
func (p *Physical) Read8(addr uint64) (byte, error) {
	i, err := p.index(addr, 1)
	if err != nil {
		return 0, err
	}
	return p.data[i], nil
}

// Write8 writes one byte of RAM.
func (p *Physical) Write8(addr uint64, v byte) error {
	i, err := p.index(addr, 1)
	if err != nil {
		return err
	}
	p.data[i] = v
	if p.OnWrite != nil {
		p.OnWrite(addr, 1)
	}
	return nil
}

// Read32 reads a little-endian 32-bit word.
func (p *Physical) Read32(addr uint64) (uint32, error) {
	i, err := p.index(addr, 4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(p.data[i:]), nil
}

// Write32 writes a little-endian 32-bit word.
func (p *Physical) Write32(addr uint64, v uint32) error {
	i, err := p.index(addr, 4)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(p.data[i:], v)
	if p.OnWrite != nil {
		p.OnWrite(addr, 4)
	}
	return nil
}

// Read64 reads a little-endian 64-bit word.
func (p *Physical) Read64(addr uint64) (uint64, error) {
	i, err := p.index(addr, 8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(p.data[i:]), nil
}

// Write64 writes a little-endian 64-bit word.
func (p *Physical) Write64(addr uint64, v uint64) error {
	i, err := p.index(addr, 8)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(p.data[i:], v)
	if p.OnWrite != nil {
		p.OnWrite(addr, 8)
	}
	return nil
}

// ReadBytes copies len(dst) bytes starting at addr into dst.
func (p *Physical) ReadBytes(addr uint64, dst []byte) error {
	i, err := p.index(addr, uint64(len(dst)))
	if err != nil {
		return err
	}
	copy(dst, p.data[i:])
	return nil
}

// WriteBytes copies src into RAM starting at addr.
func (p *Physical) WriteBytes(addr uint64, src []byte) error {
	i, err := p.index(addr, uint64(len(src)))
	if err != nil {
		return err
	}
	copy(p.data[i:], src)
	if p.OnWrite != nil && len(src) > 0 {
		p.OnWrite(addr, uint64(len(src)))
	}
	return nil
}

// Copy copies n bytes of RAM from src to dst in place (the ranges may
// overlap) and reports the write once, as one range.
func (p *Physical) Copy(dst, src, n uint64) error {
	si, err := p.index(src, n)
	if err != nil {
		return err
	}
	di, err := p.index(dst, n)
	if err != nil {
		return err
	}
	copy(p.data[di:di+n], p.data[si:si+n])
	if p.OnWrite != nil && n > 0 {
		p.OnWrite(dst, n)
	}
	return nil
}

// Zero clears n bytes starting at addr.
func (p *Physical) Zero(addr, n uint64) error {
	i, err := p.index(addr, n)
	if err != nil {
		return err
	}
	for j := uint64(0); j < n; j++ {
		p.data[i+j] = 0
	}
	if p.OnWrite != nil && n > 0 {
		p.OnWrite(addr, n)
	}
	return nil
}
