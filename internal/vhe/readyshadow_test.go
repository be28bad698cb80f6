package vhe

import "kvmarm/internal/gic/gictest"

// Every ready-set query in this package's tests is re-answered by a full
// scan of the interrupt slots; a missed re-derive panics where it shows.
func init() { gictest.ShadowReadySets() }
