package hv

import (
	"fmt"

	"kvmarm/internal/arm"
	"kvmarm/internal/kernel"
	"kvmarm/internal/machine"
	"kvmarm/internal/trace"
	"kvmarm/internal/x86"
)

// Env is a booted host environment with a hypervisor brought up on it —
// everything a harness needs to create VMs through the interfaces.
type Env struct {
	Board *machine.Board
	Host  *kernel.Kernel
	HV    Hypervisor
}

// Backend is one row of the platform table: a hypervisor configuration
// the evaluation measures (the paper's platform columns "ARM", "ARM no
// VGIC/vtimers", "KVM x86 laptop", "KVM x86 server", plus "ARM VHE").
// A row is data plus its backend family's bring-up hook; boards, hosts
// and environments are derived from it. Registration happens in the root
// kvmarm package — the only place allowed to name concrete backend types
// — so consumers stay backend-neutral.
type Backend struct {
	// Name is the canonical configuration name (a Table 3 column).
	Name string
	// Aliases are accepted alternative spellings for Lookup.
	Aliases []string
	// Board is the configuration's hardware (VGIC, virtual timers). CPUs
	// is set per build; RAM takes the machine default.
	Board machine.Config
	// X86 is the VT-x cost profile of the x86 comparator rows; nil on the
	// split-mode ARM stacks.
	X86 *x86.Profile
	// LazyVGIC is the configuration's default for the §3.5 lazy
	// list-register switch.
	LazyVGIC bool
	// BootBudget is the board-step budget a full guest boot may take.
	BootBudget uint64
	// Init brings the backend family's hypervisor up on a booted host,
	// with the lazy VGIC switch on or off.
	Init func(b *machine.Board, host *kernel.Kernel, be *Backend, lazyVGIC bool) (Hypervisor, error)
}

// IsARM distinguishes the ARM stacks from the VT-x comparator where the
// measurement method differs (the EOI+ACK micro-benchmark has no trap to
// time on x86).
func (be *Backend) IsARM() bool { return be.X86 == nil }

// NewBoard builds a bare board with this configuration's hardware and
// cost model (no host kernel) — raw trap-cost measurements.
func (be *Backend) NewBoard(cpus int) (*machine.Board, error) {
	cfg := be.Board
	cfg.CPUs = cpus
	b, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	if be.X86 != nil {
		for _, c := range b.CPUs {
			be.X86.Apply(c)
		}
	}
	return b, nil
}

// BootHost builds the configuration's board and boots a host minOS on it
// that drives the devices of hw. The simulated bootloader follows the
// paper's recommendation: non-secure, kernel entered in Hyp mode. The
// host allocator owns board RAM above the first 64 MiB, less 32 MiB.
func (be *Backend) BootHost(cpus int, hw kernel.HWConfig) (*machine.Board, *kernel.Kernel, error) {
	b, err := be.NewBoard(cpus)
	if err != nil {
		return nil, nil, err
	}
	for _, c := range b.CPUs {
		c.Secure = false
		c.SetCPSR(uint32(arm.ModeHYP) | arm.PSRI | arm.PSRF)
	}
	host := kernel.New(kernel.Config{
		Name:      be.Name + " host",
		NumCPUs:   cpus,
		CPU:       func(i int) *arm.CPU { return b.CPUs[i] },
		HW:        hw,
		Mem:       b.RAM,
		DirectGIC: b.GIC,
		AllocBase: machine.RAMBase + (64 << 20),
		AllocSize: b.Cfg.RAMBytes - (96 << 20),
	})
	if err := host.BootAll(); err != nil {
		return nil, nil, err
	}
	return b, host, nil
}

// Up boots a host over hw and brings the configuration's hypervisor up on
// it.
func (be *Backend) Up(cpus int, hw kernel.HWConfig, lazyVGIC bool) (*Env, error) {
	b, host, err := be.BootHost(cpus, hw)
	if err != nil {
		return nil, err
	}
	h, err := be.Init(b, host, be, lazyVGIC)
	if err != nil {
		return nil, err
	}
	return &Env{Board: b, Host: host, HV: h}, nil
}

// NewEnv brings the hypervisor up, with the configuration's defaults, on
// the minimal measurement host: a GIC and nothing else, so the Table 3
// cycle counts measure the hypervisor, not host device bring-up.
func (be *Backend) NewEnv(cpus int) (*Env, error) {
	return be.Up(cpus, kernel.HWConfig{GICDistBase: machine.GICDistBase, GICCPUBase: machine.GICCPUBase}, be.LazyVGIC)
}

var backends []*Backend

// Register adds a backend configuration. Every name and alias must be
// unique across the registry — a collision is a programming error (two
// backends would silently shadow each other in Lookup), so it panics.
func Register(b *Backend) {
	names := append([]string{b.Name}, b.Aliases...)
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			panic(fmt.Sprintf("hv: backend %q repeats name/alias %q", b.Name, n))
		}
		seen[n] = true
		for _, old := range backends {
			if old.Name == n {
				panic(fmt.Sprintf("hv: backend %q collides with registered backend name %q", b.Name, n))
			}
			for _, a := range old.Aliases {
				if a == n {
					panic(fmt.Sprintf("hv: backend %q collides with alias %q of backend %q", b.Name, n, old.Name))
				}
			}
		}
	}
	backends = append(backends, b)
}

// Lookup resolves a configuration by canonical name or alias.
func Lookup(name string) (*Backend, bool) {
	for _, b := range backends {
		if b.Name == name {
			return b, true
		}
		for _, a := range b.Aliases {
			if a == name {
				return b, true
			}
		}
	}
	return nil, false
}

// Backends lists the registered configurations in registration order.
func Backends() []*Backend {
	out := make([]*Backend, len(backends))
	copy(out, backends)
	return out
}

// BootGuest runs the standard VM bring-up sequence through the
// interfaces: attach the tracer (before the VM exists, so boot-time exits
// are captured), create the VM and its vCPUs, couple a guest OS, start
// the vCPU threads, and run the board until the guest kernel is up.
// vCPU thread i is pinned to host CPU i; asking for more vCPUs than the
// board has CPUs is allowed — the backends wrap the pin modulo the CPU
// count and the host scheduler time-slices the overcommitted threads.
func BootGuest(env *Env, cpus int, memBytes, budget uint64, tr *trace.Tracer) (VM, GuestOS, error) {
	if tr != nil {
		env.HV.AttachTracer(tr)
	}
	vm, err := env.HV.CreateVM(memBytes)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < cpus; i++ {
		if _, err := vm.CreateVCPU(i); err != nil {
			return nil, nil, err
		}
	}
	guest, err := vm.NewGuestOS(memBytes)
	if err != nil {
		return nil, nil, err
	}
	for i, v := range vm.VCPUs() {
		if _, err := v.StartThread(i); err != nil {
			return nil, nil, err
		}
	}
	if !env.Board.Run(budget, guest.Booted) {
		return nil, nil, fmt.Errorf("hv: guest kernel did not boot: %v", guest.Err())
	}
	return vm, guest, nil
}
