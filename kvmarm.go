// Package kvmarm is a reproduction, in simulation, of "KVM/ARM: The Design
// and Implementation of the Linux ARM Hypervisor" (Dall & Nieh, ASPLOS
// 2014).
//
// The library builds a complete simulated ARMv7 platform with the
// virtualization extensions — CPU privilege modes including Hyp mode, a
// two-stage MMU, a GICv2 interrupt controller with the VGIC, and the
// generic timers — plus minOS, a miniature Linux stand-in that boots both
// natively and (unmodified) inside VMs, and three hypervisor backend
// families: KVM/ARM itself (internal/core, the paper's split-mode design
// with its Hyp-mode lowvisor and kernel-mode highvisor), its ARMv8.1 VHE
// successor (internal/vhe), and an Intel VT-x-style comparator
// (internal/kvmx86) for the paper's x86 baseline. All of them implement
// the backend-neutral interfaces of internal/hv.
//
// This package holds the platform table: each configuration the
// evaluation measures is one hv.Backend row — its hardware, x86 cost
// profile, lazy-VGIC default, boot budget and family bring-up hook —
// registered with the hv registry. Everything else (boards, hosts,
// measurement environments, the constructors below) is derived from the
// row, so harness code selects platforms by name and never touches a
// concrete backend type.
//
// # Quick start
//
//	sys, err := kvmarm.NewNative("ARM", 2)     // bare-metal minOS
//	vsys, err := kvmarm.NewVirt("ARM", 2, nil) // minOS in a VM under KVM/ARM
//	res, err := workloads.Run(vsys.System, workloads.Apache())
//
// See examples/ for runnable programs and internal/bench for the harness
// that regenerates every table and figure of the paper's evaluation.
package kvmarm

import (
	"errors"
	"fmt"

	"kvmarm/internal/core"
	"kvmarm/internal/hv"
	"kvmarm/internal/kernel"
	"kvmarm/internal/kvmx86"
	"kvmarm/internal/machine"
	"kvmarm/internal/trace"
	"kvmarm/internal/vhe"
	"kvmarm/internal/workloads"
	"kvmarm/internal/x86"
)

// NativeSystem is a bare-metal minOS on a configuration's board.
type NativeSystem struct {
	System *workloads.System
	Board  *machine.Board
	Host   *kernel.Kernel
}

// VirtOptions tunes a guest beyond its configuration's hardware, which
// follows the backend name.
type VirtOptions struct {
	// LazyVGIC enables the list-register switch optimisation of §3.5;
	// the paper's "initial unoptimized version" leaves it off.
	LazyVGIC bool
	// SummaryReg / DirectVIPI enable the hypothetical hardware of the
	// paper's §6 recommendations (ablation studies).
	SummaryReg bool
	DirectVIPI bool
	// MemBytes is the guest RAM size (default 96 MiB).
	MemBytes uint64
	// Tracer, when non-nil, is attached to the hypervisor before the VM
	// is created, so every exit from guest boot onward is recorded.
	Tracer *trace.Tracer
}

// ErrNoVGIC rejects a VirtOptions flag that extends a VGIC the named
// configuration's hardware does not have.
var ErrNoVGIC = errors.New("kvmarm: the configuration has no VGIC")

// GuestSystem is a VM running minOS under one of the registered
// hypervisor backends, held entirely through the internal/hv interfaces.
// The same type serves the ARM and x86 stacks; use the hv accessors
// (VM.StatsSnapshot, HV.Counters, Guest.Kernel, ...) for introspection.
type GuestSystem struct {
	System *workloads.System
	Board  *machine.Board
	Host   *kernel.Kernel
	HV     hv.Hypervisor
	VM     hv.VM
	Guest  hv.GuestOS
}

func lookup(name string) (*hv.Backend, error) {
	be, ok := hv.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("kvmarm: unknown backend %q", name)
	}
	return be, nil
}

// NewNative boots minOS bare-metal on the board of the configuration
// registered as name — the baseline its virtualized runs are normalized
// against.
func NewNative(name string, cpus int) (*NativeSystem, error) {
	be, err := lookup(name)
	if err != nil {
		return nil, err
	}
	b, host, err := be.BootHost(cpus, hv.BoardHW())
	if err != nil {
		return nil, err
	}
	return &NativeSystem{
		Board: b, Host: host,
		System: &workloads.System{Name: be.Name + " native", Board: b, K: host, Spawn: host.NewProc, SMP: cpus},
	}, nil
}

// NewVirt boots a guest under the backend registered as name (canonical
// name or alias, e.g. "ARM", "arm-novgic", "x86 laptop") with the
// configuration's defaults. This is the backend-neutral entry point the
// harness layers use.
func NewVirt(name string, cpus int, tr *trace.Tracer) (*GuestSystem, error) {
	be, err := lookup(name)
	if err != nil {
		return nil, err
	}
	return NewVirtWith(name, cpus, VirtOptions{LazyVGIC: be.LazyVGIC, Tracer: tr})
}

// NewVirtWith boots a guest under the named backend with explicit
// VirtOptions, taken literally — the entry point for the per-backend §6
// ablation matrix. The lazy switch and the §6 hardware all extend the
// VGIC, so a configuration without one rejects them with ErrNoVGIC.
func NewVirtWith(name string, cpus int, opt VirtOptions) (*GuestSystem, error) {
	be, err := lookup(name)
	if err != nil {
		return nil, err
	}
	if !be.Board.HasVGIC && (opt.LazyVGIC || opt.SummaryReg || opt.DirectVIPI) {
		return nil, fmt.Errorf("%w: %q takes no LazyVGIC, SummaryReg or DirectVIPI", ErrNoVGIC, be.Name)
	}
	if opt.MemBytes == 0 {
		opt.MemBytes = 96 << 20
	}
	row := *be
	row.Board.HasSummaryReg = opt.SummaryReg
	row.Board.HasDirectVIPI = opt.DirectVIPI
	env, err := row.Up(cpus, hv.BoardHW(), opt.LazyVGIC)
	if err != nil {
		return nil, err
	}
	vm, guest, err := hv.BootGuest(env, cpus, opt.MemBytes, be.BootBudget, opt.Tracer)
	if err != nil {
		return nil, err
	}
	return &GuestSystem{
		Board: env.Board, Host: env.Host, HV: env.HV, VM: vm, Guest: guest,
		System: &workloads.System{
			Name:        be.Name,
			Board:       env.Board,
			K:           guest.Kernel(),
			Spawn:       guest.Spawn,
			Virtualized: true,
			SMP:         cpus,
		},
	}, nil
}

// The backend families' bring-up hooks, one per family; the two ARM
// members share one, differing only in their Init.

func initARM(familyInit func(*machine.Board, *kernel.Kernel) (*core.KVM, error)) func(*machine.Board, *kernel.Kernel, *hv.Backend, bool) (hv.Hypervisor, error) {
	return func(b *machine.Board, host *kernel.Kernel, _ *hv.Backend, lazyVGIC bool) (hv.Hypervisor, error) {
		k, err := familyInit(b, host)
		if err != nil {
			return nil, err
		}
		k.LazyVGIC = lazyVGIC
		return k, nil
	}
}

func initX86(b *machine.Board, host *kernel.Kernel, be *hv.Backend, _ bool) (hv.Hypervisor, error) {
	x, err := kvmx86.Init(b, host, *be.X86)
	if err != nil {
		return nil, err
	}
	return x, nil
}

// The platform table: the five evaluated configurations, in registration
// order. This package is the only one that names concrete backend types;
// everything downstream (bench, workloads, cmd/) resolves them through
// hv.Lookup.
func init() {
	vgic := machine.Config{HasVGIC: true, HasVirtTimer: true}
	laptop, server := x86.Laptop(), x86.Server()
	for _, be := range []*hv.Backend{
		{Name: "ARM", Aliases: []string{"arm"}, Board: vgic, BootBudget: 200_000_000, Init: initARM(core.Init)},
		{Name: "ARM no VGIC/vtimers", Aliases: []string{"arm-novgic"}, BootBudget: 200_000_000, Init: initARM(core.Init)},
		// VHE-era KVM ships the lazy VGIC switch by default.
		{Name: "ARM VHE", Aliases: []string{"vhe", "arm-vhe"}, Board: vgic, LazyVGIC: true, BootBudget: 200_000_000, Init: initARM(vhe.Init)},
		// x86 has no VGIC; its (emulated) guest timer is backed by the
		// hardware one.
		{Name: "KVM x86 laptop", Aliases: []string{"x86-laptop", "x86 laptop"}, Board: machine.Config{HasVirtTimer: true}, X86: &laptop, BootBudget: 300_000_000, Init: initX86},
		{Name: "KVM x86 server", Aliases: []string{"x86-server", "x86 server"}, Board: machine.Config{HasVirtTimer: true}, X86: &server, BootBudget: 300_000_000, Init: initX86},
	} {
		hv.Register(be)
	}
}
