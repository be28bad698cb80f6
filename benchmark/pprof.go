package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"strings"
)

// A minimal reader for the CPU profiles runtime/pprof writes (gzipped
// protobuf, perftools.profiles.Profile), enough to attribute samples to
// layers: no new dependency, and no shelling out to `go tool pprof`.

// shareBuckets are the host_share.* layers, one per module of the program
// plus the runtime and the benchmark's own code.
var shareBuckets = []string{
	"isa", "mmu", "mem", "arm", "x86", "gic", "timer", "bus", "machine", "kernel",
	"core", "vhe", "kvmx86", "hv", "dev", "net", "fleet", "trace",
	"runtime_gc", "runtime_other", "benchmark",
}

// layerOf maps a function name to the layer that owns it, or "" for
// runtime and library code that belongs to whoever called it.
func layerOf(fn string) string {
	const mod = "kvmarm/internal/"
	switch {
	case strings.HasPrefix(fn, mod):
		pkg := fn[len(mod):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if slices.Contains(shareBuckets, pkg) {
			return pkg
		}
		return "benchmark" // harness-side packages: bench, workloads, fault
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "kvmarm."):
		return "benchmark"
	}
	return ""
}

// gcFrames mark a stack as garbage-collector work.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcMarkTermination", "runtime.gcStart"}

// bucketOfStack attributes one sample, leaf first: to the leaf-most frame
// that lies in a package of the program (the runtime and library code it
// called — map lookups, memmove, allocation — is its cost), else to the
// collector or the rest of the runtime.
func bucketOfStack(frames []string) string {
	for _, fn := range frames {
		for _, g := range gcFrames {
			if strings.HasPrefix(fn, g) {
				return "runtime_gc"
			}
		}
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	return "runtime_other"
}

// hostShares reduces profiles to the fraction of samples per bucket. The
// fractions sum to 1 (all zero when no sample was taken).
func hostShares(profiles [][]byte) (map[string]float64, error) {
	counts := map[string]float64{}
	var total float64
	for _, raw := range profiles {
		stacks, err := decodeProfile(raw)
		if err != nil {
			return nil, err
		}
		for _, s := range stacks {
			counts[bucketOfStack(s.frames)] += float64(s.count)
			total += float64(s.count)
		}
	}
	out := map[string]float64{}
	for _, b := range shareBuckets {
		if total > 0 {
			out[b] = counts[b] / total
		} else {
			out[b] = 0
		}
	}
	return out, nil
}

type stack struct {
	frames []string // function names, leaf first, inlined callees expanded
	count  int64    // value 0 of the sample: the number of profiling ticks
}

// decodeProfile extracts every sample's stack from one profile.
func decodeProfile(raw []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = fields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			first := true
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = append(s.locs, varints(v, b)...)
				case 2:
					if vs := varints(v, b); first && len(vs) > 0 {
						s.count, first = int64(vs[0]), false
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// fields walks the fields of one protobuf message. Varint fields arrive in
// v, length-delimited ones in b; fixed-width fields are skipped.
func fields(msg []byte, visit func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("pprof: truncated field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("pprof: truncated varint")
			}
			msg = msg[n:]
			if err := visit(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("pprof: truncated bytes field")
			}
			if err := visit(num, 0, msg[n:n+int(l)]); err != nil {
				return err
			}
			msg = msg[n+int(l):]
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("pprof: truncated fixed64")
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("pprof: truncated fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
	}
	return nil
}

// varints returns a repeated varint field's values: packed in b, or the
// single value v when the field was not packed.
func varints(v uint64, b []byte) []uint64 {
	if b == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		out = append(out, x)
		b = b[n:]
	}
	return out
}
