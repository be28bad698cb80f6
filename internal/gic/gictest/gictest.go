// Package gictest is test support for the interrupt models' ready sets
// (gic.ReadySet). Test binaries import it; programs never do.
package gictest

import (
	"fmt"

	"kvmarm/internal/gic"
)

// ShadowReadySets installs gic.ReadyShadow for the whole test binary:
// every ready-set query is answered a second time by scanning every
// interrupt ID through the owning model's own rule, and a mismatch — a
// slot write that skipped its Sync — panics at the query that saw it.
// Call it from an init function in a _test.go file.
func ShadowReadySets() { gic.ReadyShadow = check }

func check(r gic.ReadyQuery, cpu, from, got int) {
	want := -1
	for id := from; id < r.NumIDs(); id++ {
		if r.Bit(cpu, id) && r.Routes(id, cpu) {
			want = id
			break
		}
	}
	if got != want {
		panic(fmt.Sprintf("gic: ready set answers %d for cpu %d from %d, a scan of the slots answers %d", got, cpu, from, want))
	}
}
