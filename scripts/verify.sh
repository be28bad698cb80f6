#!/bin/sh
# verify.sh — the repo's tier-1 verification recipe (see ROADMAP.md).
# Builds everything, vets everything, runs the full test suite, and then
# re-runs the concurrency-sensitive packages under the race detector.
# The neutrality lint (internal/hv) runs as part of `go test ./...` and
# fails the build if internal/bench, internal/workloads, internal/fleet or
# internal/net reach past the backend-neutral hv layer into a concrete
# hypervisor.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
test -z "$(gofmt -l .)"
go test ./...
# The package-level -race pass runs every test of these packages — none
# skips under -race or -short — so the hv suites (25-pair migration matrix,
# snapshot/fork conformance, migration rollback, overcommit oracles,
# mid-flight virtio migration, runtime watchdog) and fleet.Supervise need
# no -run legs of their own.
go test -race ./internal/isa/ ./internal/trace/ ./internal/mmu/ ./internal/core/ ./internal/vhe/ ./internal/hv/ ./internal/fault/ ./internal/fleet/ ./internal/kernel/ ./internal/dev/ ./internal/net/

# Short guest-memory slot fuzz smoke (overlap rejection, bounds, cross-slot
# access); the long-running variant is manual.
go test -fuzz FuzzGuestMemSlots -fuzztime 5s -run '^$' ./internal/hv/

# Short migration fault-injection fuzz smoke (point × trigger × kind →
# binary outcome invariant); the long-running variant is manual.
go test -fuzz FuzzMigrateFaults -fuzztime 5s -run '^$' ./internal/hv/

# Short snapshot-fork fuzz smoke (arbitrary host-write interleavings over a
# frozen template and three CoW clones: isolation + pool refcount
# invariants); the long-running variant is manual.
go test -fuzz FuzzSnapshotFork -fuzztime 5s -run '^$' ./internal/hv/

# Short block-cache fuzz smoke (random store/execute interleavings under
# block dispatch vs a single-step oracle: identical registers, flags,
# cycles, and memory); the long-running variant is manual.
go test -fuzz FuzzBlockCache -fuzztime 5s -run '^$' ./internal/isa/

# Short TLB fuzz smoke (random translate / fill / flush-by-scope streams at
# capacities 4..512 vs the map+order reference TLB: identical resident set
# and FIFO order, victims, stats and code invalidations); the long-running
# variant is manual. Its inputs are long operation streams, so without a
# minimisation cap the fuzzer spends the whole 5 s shrinking its first new
# input instead of searching.
go test -fuzz FuzzTLB -fuzztime 5s -fuzzminimizetime 20x -run '^$' ./internal/mmu/

# Short ready-set fuzz smokes, one per interrupt model (physical GIC,
# virtual distributor, x86 APIC): random operation streams vs the slot
# scans the ready sets replaced, compared after every operation; the
# long-running variants are manual. Inputs are long operation streams, so
# minimisation is capped as for FuzzTLB.
for pkg in gic hv kvmx86; do
	go test -fuzz FuzzReadySet -fuzztime 5s -fuzzminimizetime 20x -run '^$' ./internal/$pkg/
done

# Short switch-frame fuzz smoke (random frame interleavings vs a
# sequential MAC-learning oracle); the long-running variant is manual.
go test -fuzz FuzzSwitchFrames -fuzztime 5s -run '^$' ./internal/net/

# Short overcommit-scheduling fuzz smoke (random quantum, overcommit
# ratio, backend, arrival order and stagger vs the sequential oracle:
# identical registers, memory, and retired instructions); the
# long-running variant is manual.
go test -fuzz FuzzOvercommitSchedule -fuzztime 5s -run '^$' ./internal/hv/

# Runtime chaos matrix under the race detector: every fault family
# (device MMIO error, bring-up failure, completion stall, frame
# drop/corrupt/delay, port outage) on every backend must either recover
# — traffic completes and the server state equals a fault-free twin —
# or surface typed evidence; never a hang, never silent corruption.
go test -race -run 'TestChaosMatrix' -count=1 ./internal/bench/

# Short chaos-traffic fuzz smoke (fault point × kind × trigger × seed
# over the traffic scenario: complete-and-equal-to-twin or typed
# evidence); the long-running variant is manual.
go test -fuzz FuzzChaosTraffic -fuzztime 5s -run '^$' ./internal/bench/
