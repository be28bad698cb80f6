package bench

import (
	"bytes"
	"os"
	"testing"
)

// pinFigure renders f and holds it to testdata/<fig>.golden.
func pinFigure(t *testing.T, f *Figure) {
	t.Helper()
	var buf bytes.Buffer
	f.Print(&buf)
	t.Log(buf.String())
	checkGolden(t, f.Name, buf.Bytes())
}

// cell reads one workload's value for one configuration of f.
func cell(t *testing.T, f *Figure, w, cfg string) float64 {
	t.Helper()
	for _, r := range f.Rows {
		if r.Workload == w {
			return r.Values[cfg]
		}
	}
	t.Fatalf("%s: missing workload %q", f.Name, w)
	return 0
}

// TestTable3Shape regenerates Table 3 and asserts the paper's qualitative
// findings hold: traps are two orders of magnitude cheaper on ARM; the
// hypercall costs more with VGIC state to switch; ARM's VGIC makes EOI+ACK
// nearly free while x86 pays a full exit and no-VGIC hardware pays QEMU
// round trips; IPIs are expensive everywhere and worst without a VGIC.
func TestTable3Shape(t *testing.T) {
	rows, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	PrintMicro(&buf, rows)
	t.Log(buf.String())
	checkGolden(t, "table3", buf.Bytes())
	get := func(row, cfg string) uint64 {
		for _, r := range rows {
			if r.Name == row {
				return r.Values[cfg]
			}
		}
		t.Fatalf("missing row %q", row)
		return 0
	}
	const (
		armC = "ARM"
		vheC = "ARM VHE"
		noV  = "ARM no VGIC/vtimers"
		lapC = "x86 laptop"
		srvC = "x86 server"
	)
	// Trap: ARM manipulates two registers; x86 saves the whole VMCS.
	if tr := get("Trap", armC); tr > 60 {
		t.Errorf("ARM trap = %d cycles, want tens (paper: 27)", tr)
	}
	if get("Trap", lapC) < 10*get("Trap", armC) {
		t.Error("x86 trap must be an order of magnitude above ARM's")
	}
	// Hypercall: VGIC state save/restore dominates the ARM world switch.
	if get("Hypercall", armC) <= get("Hypercall", noV) {
		t.Error("hypercall with VGIC must exceed no-VGIC (list register switching)")
	}
	if get("Hypercall", armC) <= get("Hypercall", lapC) {
		t.Error("ARM hypercall (software world switch) must exceed x86's (hardware VMCS)")
	}
	// VHE: the trap itself costs the same (same hardware exception), but
	// the hypercall is cheaper — the host's EL1 state never moves and the
	// VGIC switch is lazy, so the world switch does far less work.
	if get("Trap", vheC) != get("Trap", armC) {
		t.Errorf("VHE trap (%d) must equal split-mode ARM's (%d): same hardware",
			get("Trap", vheC), get("Trap", armC))
	}
	if get("Hypercall", vheC) >= get("Hypercall", armC) {
		t.Errorf("VHE hypercall (%d) must be cheaper than split-mode ARM's (%d)",
			get("Hypercall", vheC), get("Hypercall", armC))
	}
	// EOI+ACK: ARM's VGIC avoids all traps; x86 exits on EOI; without a
	// VGIC everything round-trips through QEMU.
	if !(get("EOI+ACK", armC) < get("EOI+ACK", lapC) && get("EOI+ACK", lapC) < get("EOI+ACK", noV)) {
		t.Errorf("EOI+ACK ordering violated: arm=%d lap=%d nov=%d",
			get("EOI+ACK", armC), get("EOI+ACK", lapC), get("EOI+ACK", noV))
	}
	// I/O User costs more than I/O Kernel everywhere.
	for _, cfg := range MicroConfigs {
		if get("I/O User", cfg) <= get("I/O Kernel", cfg) {
			t.Errorf("%s: I/O User (%d) must exceed I/O Kernel (%d)", cfg, get("I/O User", cfg), get("I/O Kernel", cfg))
		}
	}
	// IPI: worst without a VGIC; server above laptop.
	if get("IPI", noV) <= get("IPI", armC) {
		t.Error("no-VGIC IPI must be the most expensive")
	}
	if get("IPI", srvC) <= get("IPI", lapC) {
		t.Error("x86 server IPI must exceed laptop (Table 3)")
	}
}

// TestFigure3Shape runs the UP lmbench comparison and asserts the headline
// relations of §5.2.
func TestFigure3Shape(t *testing.T) {
	f, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	pinFigure(t, f)
	get := func(w, c string) float64 { return cell(t, f, w, c) }
	for _, cfg := range f.Configs {
		if v := get("syscall", cfg); v > 1.3 {
			t.Errorf("%s syscall overhead %.2f: system calls must not trap to the hypervisor", cfg, v)
		}
	}
	// vtimers: pipe/ctxsw blow up without them (runqueue clock reads trap
	// to user space, §5.2); with them ARM is near native.
	if v := get("pipe", "ARM"); v > 1.25 {
		t.Errorf("ARM pipe overhead %.2f, want near native", v)
	}
	if get("pipe", "ARM no VGIC/vtimers") < 2*get("pipe", "ARM") {
		t.Error("no-vtimer pipe overhead must be substantially worse (§5.2)")
	}
	for _, w := range []string{"fork", "exec", "page fault", "prot fault"} {
		for _, cfg := range f.Configs {
			if v := get(w, cfg); v < 0.95 || v > 8 {
				t.Errorf("%s %s overhead %.2f out of plausible range", cfg, w, v)
			}
		}
	}
}

// TestFigure4Shape asserts the SMP lmbench findings: x86 worse than ARM on
// pipe (IPI + EOI costs), ARM worse than x86 on protection faults.
func TestFigure4Shape(t *testing.T) {
	f, err := Figure4()
	if err != nil {
		t.Fatal(err)
	}
	pinFigure(t, f)
	get := func(w, c string) float64 { return cell(t, f, w, c) }
	if get("pipe", "KVM x86 laptop") <= get("pipe", "ARM") {
		t.Error("SMP pipe must be worse on x86 than ARM (IPI/EOI traps, §5.2)")
	}
	if get("prot fault", "ARM") <= 1.0 {
		t.Error("SMP prot fault must show overhead on ARM")
	}
	if get("exec", "ARM") >= get("exec", "KVM x86 laptop") {
		t.Error("ARM must have less exec overhead than x86 in SMP (§5.2)")
	}
}

// TestFigure5Shape asserts the UP application findings of §5.2: every
// hardware-assisted configuration stays within ~25% of native on UP, and
// VGIC/vtimers beat the no-support hardware on every workload.
func TestFigure5Shape(t *testing.T) {
	f, err := Figure5()
	if err != nil {
		t.Fatal(err)
	}
	pinFigure(t, f)
	const noV = "ARM no VGIC/vtimers"
	for _, r := range f.Rows {
		for _, cfg := range f.Configs {
			if v := r.Values[cfg]; cfg != noV && v > 1.3 {
				t.Errorf("%s UP %s overhead %.2f, want within ~25%% of native (§5.2)", cfg, r.Workload, v)
			}
		}
		for _, cfg := range []string{"ARM", "ARM VHE"} {
			if r.Values[cfg] >= r.Values[noV] {
				t.Errorf("%s: %s (%.3f) must beat no-VGIC/vtimers hardware (%.3f)", r.Workload, cfg, r.Values[cfg], r.Values[noV])
			}
		}
	}
}

// TestFigure6Shape asserts the headline application results: on multicore,
// KVM/ARM stays within ~20% of native for the latency-tolerant workloads
// while x86 is significantly worse on apache and mysql.
func TestFigure6Shape(t *testing.T) {
	f, err := Figure6()
	if err != nil {
		t.Fatal(err)
	}
	pinFigure(t, f)
	get := func(w, c string) float64 { return cell(t, f, w, c) }
	for _, w := range []string{"apache", "mysql", "untar", "curl 1G", "kernel compile", "hackbench"} {
		if v := get(w, "ARM"); v > 1.45 {
			t.Errorf("ARM SMP %s overhead %.2f, want close to native (§5.2: within 10%%)", w, v)
		}
	}
	for _, w := range []string{"apache", "mysql"} {
		if get(w, "KVM x86 laptop") <= get(w, "ARM") {
			t.Errorf("%s: x86 must have significantly more SMP overhead than ARM (§5.2)", w)
		}
	}
}

// TestFigure7Shape asserts the energy findings: KVM/ARM's normalized
// energy is below KVM x86's for the CPU-bound workloads.
func TestFigure7Shape(t *testing.T) {
	f, err := Figure7()
	if err != nil {
		t.Fatal(err)
	}
	pinFigure(t, f)
	get := func(w, c string) float64 { return cell(t, f, w, c) }
	for _, w := range []string{"apache", "mysql", "hackbench"} {
		if get(w, "ARM") > get(w, "KVM x86 laptop")+0.05 {
			t.Errorf("%s: ARM normalized energy %.2f must not exceed x86's %.2f (§5.2)",
				w, get(w, "ARM"), get(w, "KVM x86 laptop"))
		}
		// Without VGIC/vtimers the extra exits cost energy too.
		if get(w, "ARM no VGIC/vtimers") <= get(w, "ARM") {
			t.Errorf("%s: no-VGIC/vtimers normalized energy %.2f must exceed ARM's %.2f (§5.2)",
				w, get(w, "ARM no VGIC/vtimers"), get(w, "ARM"))
		}
	}
	for _, r := range f.Rows {
		for cfg, v := range r.Values {
			if v < 0.95 || v > 4 {
				t.Errorf("%s %s energy ratio %.2f implausible", cfg, r.Workload, v)
			}
		}
	}
}

// TestTable1Inventory checks the implemented state counts against Table 1.
func TestTable1Inventory(t *testing.T) {
	rows := Table1()
	want := map[string]string{
		"General Purpose (GP) Registers": "38",
		"Control Registers":              "26",
		"VGIC Control Registers":         "16",
		"VGIC List Registers":            "4",
		"64-bit VFP registers":           "32",
		"32-bit VFP Control Registers":   "4",
	}
	for _, r := range rows {
		if w, ok := want[r.State]; ok && r.Count != w {
			t.Errorf("%s: %s, want %s", r.State, r.Count, w)
		}
	}
	PrintTable1(os.Stdout)
	PrintTable2(os.Stdout)
}

// TestTable4LowvisorShare verifies the split-mode code-size claim: the
// Hyp-mode lowvisor is a small fraction of the hypervisor (paper: 718 of
// 5,812 LOC).
func TestTable4LowvisorShare(t *testing.T) {
	if err := PrintTable4(os.Stdout, "../.."); err != nil {
		t.Fatal(err)
	}
}
