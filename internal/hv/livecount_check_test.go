package hv_test

import (
	"fmt"

	"kvmarm/internal/kernel"
)

// Every test of this package — the overcommit oracles and
// FuzzOvercommitSchedule among them — runs with each kernel's LiveCount
// cross-checked against a full recount of its process table.
func init() {
	kernel.CheckLiveCount = func(counted, recounted int) {
		if counted != recounted {
			panic(fmt.Sprintf("kernel: LiveCount = %d, recount of the process table = %d", counted, recounted))
		}
	}
}
