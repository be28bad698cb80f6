package gic

import (
	"fmt"
	"math/bits"
)

// ReadySet is the index every interrupt model (the physical GIC, the
// virtual distributor, the x86 APIC) keeps beside its per-interrupt slot
// arrays so that "what is pending for this CPU" walks only the interrupts
// that can be delivered instead of every ID — the role Linux's vgic gives
// its per-vCPU ap_list. Private IDs (SGIs and PPIs, 0-31) are one word
// per CPU; shared IDs are shared words, filtered per CPU at query time by
// the model's routing rule.
//
// The slot arrays stay the source of truth. After every write to a field
// the set's bit depends on, the model calls Sync for that one ID; a bulk
// state install calls Rebuild. Queries return IDs lowest first, the GIC's
// priority order.
type ReadySet[M any] struct {
	priv [MaxCPUs]uint32
	spi  [maxSPIWords]uint64
	// cpus and numSPIs bound the private and shared IDs in use.
	cpus, numSPIs int
	// model is the interrupt model whose slots bit reads; bit derives one
	// ID's membership from them, and for a shared ID must not depend on
	// cpu. Both rules are plain functions of the model (method
	// expressions), not closures, so building a set allocates nothing.
	model M
	bit   func(m M, cpu, id int) bool
	// routes reports whether shared ID id reaches cpu; nil routes every
	// shared ID to every CPU.
	routes func(m M, id, cpu int) bool
}

// MaxCPUs is the most CPUs (or vCPUs) a GICv2 distributor serves: target
// masks and SGI target lists are one byte.
const MaxCPUs = 8

// maxSPIWords bounds the shared IDs a set covers to 128, inline so that a
// set costs its owner no allocation: the board's GIC and the virtual
// models each have 96 SPIs.
const maxSPIWords = 2

// ReadyQuery is what a ready-set query exposes to ReadyShadow.
type ReadyQuery interface {
	// NumIDs is one past the highest ID the set covers.
	NumIDs() int
	// Bit reports the model's membership rule for id (what Sync stores).
	Bit(cpu, id int) bool
	// Routes reports whether id reaches cpu: always for a private ID, by
	// the model's routing rule for a shared one.
	Routes(id, cpu int) bool
}

// ReadyShadow, when non-nil, is called with the answer of every Next
// query. Production code leaves it nil; tests install an oracle that
// re-derives the answer by scanning every ID and panics on a mismatch.
var ReadyShadow func(r ReadyQuery, cpu, from, got int)

// NewReadySet returns an empty set for cpus CPUs and numSPIs shared IDs
// of model, with its membership rule bit and its shared-interrupt routing
// rule routes (nil: every CPU).
func NewReadySet[M any](cpus, numSPIs int, model M, bit func(m M, cpu, id int) bool, routes func(m M, id, cpu int) bool) ReadySet[M] {
	if cpus > MaxCPUs || numSPIs > maxSPIWords*64 {
		panic(fmt.Sprintf("gic: ready set for %d CPUs and %d shared IDs exceeds %d and %d", cpus, numSPIs, MaxCPUs, maxSPIWords*64))
	}
	return ReadySet[M]{cpus: cpus, numSPIs: numSPIs, model: model, bit: bit, routes: routes}
}

// AddCPU extends the set by one CPU with no private ID set.
func (r *ReadySet[M]) AddCPU() {
	if r.cpus == MaxCPUs {
		panic(fmt.Sprintf("gic: ready set beyond %d CPUs", MaxCPUs))
	}
	r.cpus++
}

// NumIDs is one past the highest ID the set covers.
func (r *ReadySet[M]) NumIDs() int { return SPIBase + r.numSPIs }

// Bit reports the model's membership rule for id (what Sync stores).
func (r *ReadySet[M]) Bit(cpu, id int) bool { return r.bit(r.model, cpu, id) }

// Routes reports whether id reaches cpu: always for a private ID,
// by the model's routing rule for a shared one.
func (r *ReadySet[M]) Routes(id, cpu int) bool {
	return id < SPIBase || r.routes == nil || r.routes(r.model, id, cpu)
}

// Sync re-derives id's bit after a write to its slot. For a shared ID cpu
// is ignored.
func (r *ReadySet[M]) Sync(cpu, id int) {
	on := r.bit(r.model, cpu, id)
	if id < SPIBase {
		if on {
			r.priv[cpu] |= 1 << id
		} else {
			r.priv[cpu] &^= 1 << id
		}
		return
	}
	i, b := (id-SPIBase)/64, uint(id-SPIBase)%64
	if on {
		r.spi[i] |= 1 << b
	} else {
		r.spi[i] &^= 1 << b
	}
}

// Rebuild re-derives every bit, after a bulk install of slot state.
func (r *ReadySet[M]) Rebuild() {
	r.priv, r.spi = [MaxCPUs]uint32{}, [maxSPIWords]uint64{}
	for cpu := 0; cpu < r.cpus; cpu++ {
		for id := 0; id < SPIBase; id++ {
			r.Sync(cpu, id)
		}
	}
	for id := SPIBase; id < r.NumIDs(); id++ {
		r.Sync(0, id)
	}
}

// Lowest returns the lowest set ID that reaches cpu, or -1.
func (r *ReadySet[M]) Lowest(cpu int) int { return r.Next(cpu, 0) }

// Next returns the lowest set ID >= from that reaches cpu, or -1. Walking
// with Next(cpu, id+1) is safe while the caller syncs the IDs it visits.
func (r *ReadySet[M]) Next(cpu, from int) int {
	got := r.next(cpu, from)
	if ReadyShadow != nil {
		ReadyShadow(r, cpu, from, got)
	}
	return got
}

func (r *ReadySet[M]) next(cpu, from int) int {
	if from < SPIBase {
		if w := r.priv[cpu] >> uint(from); w != 0 {
			return from + bits.TrailingZeros32(w)
		}
		from = SPIBase
	}
	for i := (from - SPIBase) / 64; i*64 < r.numSPIs; i++ {
		w := r.spi[i]
		if lo := SPIBase + i*64; from > lo {
			w &^= 1<<uint(from-lo) - 1
		}
		for ; w != 0; w &= w - 1 {
			id := SPIBase + i*64 + bits.TrailingZeros64(w)
			if r.routes == nil || r.routes(r.model, id, cpu) {
				return id
			}
		}
	}
	return -1
}
