package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

// A hand-encoded profile, in the wire format runtime/pprof writes.

func pbVarint(field int, v uint64) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(nil, uint64(field)<<3), v)
}

func pbBytes(field int, b []byte) []byte {
	out := binary.AppendUvarint(nil, uint64(field)<<3|2)
	return append(binary.AppendUvarint(out, uint64(len(b))), b...)
}

func pbPacked(field int, vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return pbBytes(field, b)
}

// cannedProfile has one function per location (location i+1 is function
// i+1 is name i+1) except the last location, which inlines two functions.
func cannedProfile(t *testing.T, names []string, samples map[string][]uint64, counts map[string]uint64) []byte {
	t.Helper()
	var p []byte
	for key, locs := range samples {
		p = append(p, pbBytes(2, append(pbPacked(1, locs...), pbPacked(2, counts[key], counts[key]*10_000_000)...))...)
	}
	strs := append([]string{""}, names...)
	for i := range names {
		id := uint64(i + 1)
		p = append(p, pbBytes(5, append(pbVarint(1, id), pbVarint(2, id)...))...)
		p = append(p, pbBytes(4, append(pbVarint(1, id), pbBytes(4, pbVarint(1, id))...))...)
	}
	// Location 100: memmove inlined into (innermost first) net.Seal.
	inl := append(pbVarint(1, 100), pbBytes(4, pbVarint(1, 6))...)
	inl = append(inl, pbBytes(4, pbVarint(1, 5))...)
	p = append(p, pbBytes(4, inl)...)
	for _, s := range strs {
		p = append(p, pbBytes(6, []byte(s))...)
	}
	p = append(p, pbVarint(12, 10_000_000)...) // period: skipped by the reader
	var z bytes.Buffer
	w := gzip.NewWriter(&z)
	if _, err := w.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return z.Bytes()
}

func TestHostSharesFromCannedProfile(t *testing.T) {
	names := []string{
		"kvmarm/internal/isa.(*Interp).Exec",       // 1
		"runtime.mapaccess2",                       // 2
		"kvmarm/internal/mmu.(*MMU).compactOrder",  // 3
		"runtime.gcBgMarkWorker",                   // 4
		"kvmarm/internal/net.Seal",                 // 5
		"runtime.memmove",                          // 6
		"main.(*recorder).timed",                   // 7
		"runtime.mcall",                            // 8
		"kvmarm/internal/bench.Table3",             // 9
		"kvmarm/internal/kvmx86.(*Hypervisor).run", // 10
		"runtime.scanobject",                       // 11
	}
	raw := cannedProfile(t, names,
		map[string][]uint64{
			"isa":      {1, 7},    // leaf in isa
			"mmu":      {2, 3, 1}, // a map lookup is the cost of its mmu caller, not of isa above it
			"gc":       {11, 4},   // collector work
			"net":      {100, 7},  // inlined memmove inside net.Seal
			"other":    {8},       // no frame of the program
			"harness":  {9, 7},    // a harness-side package counts as the benchmark
			"kvmx86":   {10},      //
			"selftime": {7},       //
		},
		map[string]uint64{"isa": 40, "mmu": 20, "gc": 10, "net": 10, "other": 5, "harness": 5, "kvmx86": 6, "selftime": 4})
	got, err := hostShares([][]byte{raw})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"isa": .40, "mmu": .20, "runtime_gc": .10, "net": .10, "runtime_other": .05, "benchmark": .09, "kvmx86": .06}
	sum := 0.0
	for _, b := range shareBuckets {
		sum += got[b]
		if math.Abs(got[b]-want[b]) > 1e-12 {
			t.Errorf("host_share.%s = %v, want %v", b, got[b], want[b])
		}
	}
	if len(got) != len(shareBuckets) || math.Abs(sum-1) > 1e-12 {
		t.Errorf("%d shares summing to %v, want %d summing to 1", len(got), sum, len(shareBuckets))
	}
	if _, err := hostShares([][]byte{[]byte("not a profile")}); err == nil {
		t.Error("garbage decoded as a profile")
	}
}
