package main

import (
	"fmt"
	"sort"
)

// latencyBackend is the backend whose per-op latencies are reported end
// to end; the others appear in the per-backend rows.
const latencyBackend = "arm"

// endToEndOf computes one repeat's end-to-end metric values.
func endToEndOf(r *repeatResult) map[string]float64 {
	var cycles uint64
	var opsPerS []float64
	for _, b := range r.Backends {
		cycles += b.SimCycles
		opsPerS = append(opsPerS, b.simOpsPerS())
	}
	sort.Float64s(opsPerS) // the geomean must not depend on map order
	lat := r.Backends[latencyBackend].Lat
	return map[string]float64{
		"setup_s":            r.SetupS,
		"host_wall_s":        r.HostWallS,
		"host_cpu_s":         r.HostCPUS,
		"guest_mips":         float64(r.GuestInsns) / r.HostWallS / 1e6,
		"host_allocs_per_op": float64(r.Mallocs) / float64(r.Ops),
		"host_alloc_mb":      float64(r.AllocBytes) / (1 << 20),
		"host_peak_rss_mb":   r.PeakRSSMB,
		"sim_cycles":         float64(cycles),
		"sim_ops_per_s":      geomean(opsPerS),
		"sim_p50_cycles":     lat.P50,
		"sim_p99_cycles":     lat.Tail,
	}
}

// simulated lists the end-to-end metrics on the simulated clock: equal in
// every repeat of a seed, bit for bit.
var simulated = map[string]bool{
	"sim_cycles": true, "sim_ops_per_s": true, "sim_p50_cycles": true, "sim_p99_cycles": true,
}

// workloadReport is one workload's aggregate over its repeats.
type workloadReport struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	FailRatio float64            `json:"fail_ratio"`
	Failures  []string           `json:"failures,omitempty"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	// Tail says which percentile sim_p99_cycles holds and over how many
	// samples (the 99th needs a thousand).
	Tail     latency            `json:"latency"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
}

// aggregate folds the untraced repeats of one workload and seed. A repeat
// whose simulated outputs differ from the first is a failure: the
// simulator is deterministic.
func aggregate(reps []*repeatResult) *workloadReport {
	first := reps[0]
	rep := &workloadReport{Workload: first.Workload, Seed: first.Seed,
		EndToEnd: map[string]summary{}, Tail: first.Backends[latencyBackend].Lat}
	values := map[string][]float64{}
	for _, r := range reps {
		rep.Attempted += r.Ops
		rep.Failed += r.Failed
		rep.Failures = append(rep.Failures, r.Failures...)
		if r.Output != first.Output {
			rep.Failed++
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: simulated outputs of repeat %d differ from repeat %d of the same seed", r.Workload, r.Repeat, first.Repeat))
		}
		for name, v := range endToEndOf(r) {
			values[name] = append(values[name], v)
		}
	}
	for name, v := range values {
		rep.EndToEnd[name] = summarize(v)
	}
	rep.FailRatio = float64(rep.Failed) / float64(rep.Attempted)
	return rep
}

// medians flattens a report's end-to-end summaries to their medians.
func (w *workloadReport) medians() map[string]float64 {
	out := make(map[string]float64, len(w.EndToEnd))
	for name, s := range w.EndToEnd {
		out[name] = s.Median
	}
	return out
}

// perLayerOf assembles the per-layer metrics of one workload from the
// traced repeat, the untraced repeats it is compared with, and the layer
// probes. Counts come from the traced repeat (they are simulated state and
// equal in every repeat); host costs per event divide the untraced wall
// time, so they carry no tracing overhead.
func perLayerOf(traced *repeatResult, untraced []*repeatResult, probes map[string]float64, extra map[string]float64) map[string]float64 {
	out := map[string]float64{}
	c := traced.Counts
	for _, name := range []string{
		"count.guest_insns", "count.exits", "count.exits_hypercall", "count.exits_mmio_kernel",
		"count.exits_mmio_user", "count.exits_s2_fault", "count.exits_irq", "count.exits_wfi",
		"count.virq_injected", "count.ipis", "mmu.tlb_misses", "isa.block_invals",
		"net.frames_forwarded", "net.frames_flooded", "net.frames_dropped",
		"dev.rx_dma_frames", "dev.rx_dropped", "mmu.cow_breaks", "mmu.dirty_faults",
		"hv.pages_precopied", "hv.migrate_rounds", "fleet.shared_frac", "kernel.preemptions",
		"sim_downtime_cycles",
	} {
		out[name] = c[name]
	}
	out["count.world_switches"] = c["world_switches"]
	out["mmu.tlb_hit_ratio"] = ratio(c["tlb_hits"], c["mmu.tlb_misses"])
	out["isa.block_hit_ratio"] = ratio(c["block_hits"], c["block_misses"])

	var walls, mallocs []float64
	for _, r := range untraced {
		walls = append(walls, r.HostWallS)
		mallocs = append(mallocs, float64(r.Mallocs))
	}
	wallNs, allocs := median(walls)*1e9, median(mallocs)
	per := func(total, events float64) float64 {
		if events == 0 {
			return 0
		}
		return total / events
	}
	selfS := map[string]float64{}
	for _, s := range traced.Spans {
		selfS[s.Name] += s.Self
	}
	frames := c["net.frames_forwarded"] + c["net.frames_flooded"]
	out["host_ns_per_guest_insn"] = per(wallNs, c["count.guest_insns"])
	out["host_ns_per_exit"] = per(wallNs, c["count.exits"])
	out["host_ns_per_frame"] = per(wallNs, frames)
	out["host_ns_per_fork"] = per(selfS["fork"]*1e9, c["forks"])
	out["host_ns_per_migrated_page"] = per(selfS["migrate"]*1e9, c["pages_migrated"])
	out["host_allocs_per_exit"] = per(allocs, c["count.exits"])
	out["host_allocs_per_frame"] = per(allocs, frames)
	out["host_gc_frac"] = traced.GCFrac
	for _, name := range []string{"new_env", "load_image", "board_run", "snapshot", "fork", "migrate", "verify"} {
		out["span."+name+"_s"] = selfS[name]
	}
	out["trace.overhead_frac"] = per(traced.HostWallS*1e9-wallNs, wallNs)
	for _, b := range shareBuckets {
		out["host_share."+b] = traced.Shares[b]
	}
	for _, name := range allBackends {
		var w []float64
		for _, r := range untraced {
			w = append(w, r.Backends[name].HostWallS)
		}
		row := untraced[0].Backends[name]
		out[name+".host_wall_s"] = median(w)
		out[name+".sim_cycles"] = float64(row.SimCycles)
		out[name+".sim_ops_per_s"] = row.simOpsPerS()
		out[name+".sim_p99_cycles"] = row.Lat.Tail
	}
	for name, v := range probes {
		out[name] = v
	}
	for name, v := range extra {
		out[name] = v
	}
	return out
}
