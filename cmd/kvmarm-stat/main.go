// Command kvmarm-stat boots a traced KVM/ARM guest, runs a workload on it,
// and prints the kvm_stat-style aggregated view of every exit and
// world-switch event the hypervisor took, cross-checked against the
// hypervisor's own counters. When the run multiplexed more vCPU threads
// than host CPUs, the report grows a per-vCPU scheduling section (steal
// cycles and preemptions, from the EvSchedSteal/EvSchedPreempt events).
//
// Usage:
//
//	kvmarm-stat                          # syscall workload, 2 vCPUs, ARM
//	kvmarm-stat -workload apache -cpus 4
//	kvmarm-stat -backend x86-laptop      # any registered backend (see kvmarm)
//	kvmarm-stat -novgic                  # the paper's "ARM no VGIC/vtimers"
//	kvmarm-stat -events 20               # also dump the last 20 raw events
//	kvmarm-stat -list                    # list workload names
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"kvmarm"
	"kvmarm/internal/bench"
	"kvmarm/internal/trace"
	"kvmarm/internal/workloads"
)

func allWorkloads() map[string]workloads.Workload {
	m := map[string]workloads.Workload{}
	for _, w := range workloads.LMBench() {
		m[w.Name] = w
	}
	for _, w := range workloads.Apps() {
		m[w.Name] = w
	}
	return m
}

func main() {
	cpus := flag.Int("cpus", 2, "number of vCPUs")
	name := flag.String("workload", "syscall", "workload to run (see -list)")
	backend := flag.String("backend", "ARM", "hypervisor backend (ARM, arm-novgic, x86-laptop, x86-server)")
	novgic := flag.Bool("novgic", false, "shorthand for -backend arm-novgic")
	ring := flag.Int("ring", trace.DefaultRingSize, "trace ring size in events")
	events := flag.Int("events", 0, "dump the last N raw trace events")
	list := flag.Bool("list", false, "list workload names and exit")
	flag.Parse()

	wls := allWorkloads()
	if *list {
		names := make([]string, 0, len(wls))
		for n := range wls {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Println(n)
		}
		return
	}
	w, ok := wls[*name]
	if !ok {
		fail(fmt.Errorf("unknown workload %q (try -list)", *name))
	}

	be := *backend
	if *novgic {
		be = "arm-novgic"
	}
	tr := trace.New(*ring)
	vsys, err := kvmarm.NewVirt(be, *cpus, tr)
	if err != nil {
		fail(err)
	}
	res, err := workloads.Run(vsys.System, w)
	if err != nil {
		fail(err)
	}
	fmt.Printf("workload %q on %d vCPU(s) [%s]: %d cycles\n\n", w.Name, *cpus, be, res.Cycles)

	snap := tr.Snapshot()
	snap.WriteStat(os.Stdout)

	if *events > 0 {
		n := *events
		if n > len(snap.Events) {
			n = len(snap.Events)
		}
		fmt.Printf("\nlast %d events:\n", n)
		for _, e := range snap.Events[len(snap.Events)-n:] {
			fmt.Printf("  seq=%-8d t=%-12d cpu=%d vm=%d vcpu=%-2d %-16s pc=%08x hsr=%08x arg=%x cycles=%d\n",
				e.Seq, e.Time, e.CPU, e.VM, e.VCPU, e.Kind, e.PC, e.HSR, e.Arg, e.Cycles)
		}
	}

	// The cross-check mapping between trace classes and the hypervisor's
	// ad-hoc counters holds wherever the hardware has virtual timers;
	// without them the sysreg-emulation paths blur the MMIO-user split.
	if vsys.Board.Cfg.HasVirtTimer {
		if !bench.PrintCrossCheck(os.Stdout, bench.CrossCheckRows(vsys, tr)) {
			fail(fmt.Errorf("trace counts disagree with hypervisor counters"))
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "kvmarm-stat:", err)
	os.Exit(1)
}
