package kernel

import (
	"fmt"
	"testing"

	"kvmarm/internal/arm"
)

// Every test of this package runs with LiveCount cross-checked against a
// full recount of the process table.
func init() {
	CheckLiveCount = func(counted, recounted int) {
		if counted != recounted {
			panic(fmt.Sprintf("kernel: LiveCount = %d, recount of the process table = %d", counted, recounted))
		}
	}
}

// TestLiveCountFollowsExits: processes that exit leave LiveCount, ones
// that keep running stay in it, and each exit is counted once.
func TestLiveCountFollowsExits(t *testing.T) {
	b, k := hostBoot(t, 1)
	live := k.LiveCount()
	exitAfter := func(steps uint64) Body {
		return BodyFunc(func(k *Kernel, p *Proc, c *arm.CPU) bool {
			c.Charge(500)
			return p.Steps >= steps
		})
	}
	for _, body := range []Body{exitAfter(3), exitAfter(5), spinBody(500)} {
		if _, err := k.NewProc("p", 0, body); err != nil {
			t.Fatal(err)
		}
	}
	if got := k.LiveCount(); got != live+3 {
		t.Fatalf("LiveCount after three NewProc = %d, want %d", got, live+3)
	}
	b.Run(200_000, func() bool { return false })
	if got := k.LiveCount(); got != live+1 {
		t.Fatalf("LiveCount after two exits = %d, want %d", got, live+1)
	}
	if got := k.recountLive(); got != live+1 {
		t.Fatalf("recount = %d, want %d", got, live+1)
	}
}
