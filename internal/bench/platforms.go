// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§5) on the simulated platforms —
// Table 1 (context-switched state), Table 2 (workloads), Table 3
// (micro-architectural cycle counts), Figures 3–6 (normalized lmbench and
// application performance, UP and SMP), Figure 7 (normalized energy), and
// Table 4 (code complexity).
package bench

import (
	"fmt"

	"kvmarm"
	"kvmarm/internal/workloads"
)

// Configs names the virtualized configurations compared throughout the
// evaluation, in the paper's legend order — ARM, ARM w/o VGIC/vtimers,
// x86 laptop, x86 server — plus the ARMv8.1 VHE configuration (§7's
// "running Linux in Hyp mode" outlook) next to its split-mode sibling.
// Each is a row of the platform table, looked up by name.
func Configs() []string {
	return []string{"ARM", "ARM VHE", "ARM no VGIC/vtimers", "KVM x86 laptop", "KVM x86 server"}
}

// Overhead runs w on a fresh virtualized system and a fresh native
// baseline of the named configuration and returns the normalized
// (virt/native) runtime.
func Overhead(cfg string, w workloads.Workload, cpus int) (float64, error) {
	nat, err := kvmarm.NewNative(cfg, cpus)
	if err != nil {
		return 0, fmt.Errorf("%s native: %w", cfg, err)
	}
	nres, err := workloads.Run(nat.System, w)
	if err != nil {
		return 0, fmt.Errorf("%s native %s: %w", cfg, w.Name, err)
	}
	virt, err := kvmarm.NewVirt(cfg, cpus, nil)
	if err != nil {
		return 0, fmt.Errorf("%s virt: %w", cfg, err)
	}
	vres, err := workloads.Run(virt.System, w)
	if err != nil {
		return 0, fmt.Errorf("%s virt %s: %w", cfg, w.Name, err)
	}
	if nres.Cycles == 0 {
		return 0, fmt.Errorf("%s native %s: zero-length run", cfg, w.Name)
	}
	return float64(vres.Cycles) / float64(nres.Cycles), nil
}
