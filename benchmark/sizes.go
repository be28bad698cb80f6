package main

// The frozen workload sizes. They are constants, never calibrated at run
// time, so every simulated metric is exact for a given seed; a run that
// needs less work (the smoke test, the 1/50 twin) divides the loop counts
// and leaves the structures (page counts, block counts, table shapes)
// alone. Full size was fixed on the 2-core reference box so that one
// repeat's timed region takes between three and four seconds.
type sizes struct {
	div int

	// backends the workloads run on: all five at full size; one of each
	// family when the sizes are divided (set-up cost does not divide).
	backends []string

	// guest-compute: rounds on the block-cache backends (the single-step
	// backend runs 1/computeStepShare of them), and instructions per op.
	computeRounds, opInsns int

	// exit-storm: operations per phase and backend.
	hypercalls, mmioKernel, mmioUser, ipis, vtimers int

	// traffic-steady: requests per client and backend.
	requests int

	// fleet-churn: generations per backend, clones per generation, and
	// write rounds of each migrated writer.
	generations, clones, writerRounds int
}

const (
	computePages     = 2048  // mem phase working set: 4x the 512-entry TLB
	computeSlots     = 2048  // accesses per pass over the table
	computeBlocks    = 6000  // blocks phase: past the 4096-block cache cap
	computeAluIters  = 19200 // per round: 192 k alu instructions,
	computeMemPasses = 3     // 49 k mem instructions, 48 k in one block chain
	computeStepShare = 8     // x86-laptop runs 1/8 of the rounds
	computeTwinDiv   = 50    // the single-step twin runs at 1/50 size

	trafficClients = 3
	trafficCPUs    = 2

	churnPages      = 256 // dataset pages the template stamps
	churnWrites     = 48  // pages each clone writes (CoW breaks)
	churnWriters    = 2   // clones live-migrated per generation
	churnCPUs       = 2
	churnGuestBytes = 16 << 20
)

func sizesFor(div int) sizes {
	if div < 1 {
		div = 1
	}
	atLeast := func(n, min int) int {
		if n/div < min {
			return min
		}
		return n / div
	}
	backends := allBackends
	if div > 1 {
		backends = []string{"arm", "x86-laptop"}
	}
	return sizes{
		div: div, backends: backends,
		computeRounds: atLeast(120, 1), opInsns: atLeast(1_000_000, 1000),
		hypercalls: atLeast(150_000, 64), mmioKernel: atLeast(75_000, 64), mmioUser: atLeast(75_000, 64),
		ipis: atLeast(30_000, 16), vtimers: atLeast(30_000, 16),
		requests:    atLeast(1000, 12),
		generations: atLeast(1, 1), clones: atLeast(200, 4), writerRounds: atLeast(4000, 2000),
	}
}
