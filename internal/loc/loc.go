// Package loc counts lines of code per component, reproducing the method
// behind Table 4 ("Code Complexity in Lines of Code"): the paper counted
// the architecture-specific code KVM/ARM added to Linux (5,812 LOC, of
// which the lowvisor is 718) against KVM x86's 25,367.
//
// For this reproduction the comparable split is: the KVM/ARM implementation
// (internal/core, which both ARM backends run, plus the virtual
// distributor) by component, the KVM x86 comparator (internal/kvmx86 +
// internal/x86), and the architecture-generic substrate both share.
// internal/hv — the backend-neutral Hypervisor/VM/VCPU layer and the kit
// every backend embeds: memslots, second-stage fault resolution, the dirty
// log, vCPU block/kick, register and device save/restore — is the analogue
// of Linux's virt/kvm/: arch-neutral code that Table 4 charges to neither
// architecture.
package loc

import (
	"bufio"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Count is the line tally of one file or group.
type Count struct {
	Files    int
	Code     int
	Comments int
	Blank    int
}

// Add accumulates another count.
func (c *Count) Add(o Count) {
	c.Files += o.Files
	c.Code += o.Code
	c.Comments += o.Comments
	c.Blank += o.Blank
}

// CountFile tallies one Go file (line comments and /* */ blocks count as
// comments; anything else non-blank is code).
func CountFile(path string) (Count, error) {
	f, err := os.Open(path)
	if err != nil {
		return Count{}, err
	}
	defer f.Close()
	return CountReader(f)
}

// CountReader tallies Go source from r.
func CountReader(r io.Reader) (Count, error) {
	c := Count{Files: 1}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	inBlock := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case inBlock:
			c.Comments++
			if strings.Contains(line, "*/") {
				inBlock = false
			}
		case line == "":
			c.Blank++
		case strings.HasPrefix(line, "//"):
			c.Comments++
		case strings.HasPrefix(line, "/*"):
			c.Comments++
			if !strings.Contains(line, "*/") {
				inBlock = true
			}
		default:
			c.Code++
		}
	}
	return c, sc.Err()
}

// CountDir tallies all non-test Go files under dir (recursively). With
// tests=true, only _test.go files are counted instead.
func CountDir(dir string, tests bool) (Count, error) {
	var total Count
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		isTest := strings.HasSuffix(path, "_test.go")
		if isTest != tests {
			return nil
		}
		c, err := CountFile(path)
		if err != nil {
			return err
		}
		total.Add(c)
		return nil
	})
	return total, err
}

// Component maps a Table 4 row to the files implementing it.
type Component struct {
	Name  string
	Paths []string
}

// vdistFile is the one file under ArchNeutralDirs that is ARM code all the
// same: the virtual distributor lives in internal/hv only because two ARM
// backends share it, and Linux counted its counterpart
// (arch/arm/kvm/vgic.c) in KVM/ARM's 5,812 lines.
const vdistFile = "internal/hv/vdist.go"

// Table4Components returns this repository's Table 4 breakdown for the
// KVM/ARM side: the components mirror the paper's rows (Core CPU, Page
// Fault Handling, Interrupts, Timers, Other), and every file Table4 counts
// in the KVM/ARM total is in exactly one of them.
func Table4Components(root string) []Component {
	j := func(p string) string { return filepath.Join(root, p) }
	return []Component{
		{"Core CPU (lowvisor + world switch)", []string{j("internal/core/lowvisor.go"), j("internal/core/context.go")}},
		// Stage-2 fault resolution is hv.VMCore.ResolveRAMFault, shared by
		// every backend and so arch-neutral like virt/kvm; what is left on
		// the ARM side is the abort classification inside highvisor.go.
		{"Page Fault Handling", []string{}},
		{"Interrupts", []string{j(vdistFile)}},
		{"Timers", []string{j("internal/core/vtimer.go")}},
		{"Other (highvisor, MMIO, guest glue)", []string{j("internal/core/highvisor.go"), j("internal/core/kvm.go"), j("internal/core/guestos.go")}},
	}
}

// Row is one rendered Table 4 row.
type Row struct {
	Component string
	ARM       int
	X86       int
}

// ArchNeutralDirs lists the packages whose code is shared by every
// backend and therefore attributed to neither architecture in Table 4 —
// the counterpart of Linux's virt/kvm/.
var ArchNeutralDirs = []string{"internal/hv"}

// ArchNeutral counts the backend-neutral hypervisor code: internal/hv
// less the ARM files Table4 charges to KVM/ARM.
func ArchNeutral(root string) (Count, error) {
	var total Count
	for _, d := range ArchNeutralDirs {
		c, err := CountDir(filepath.Join(root, d), false)
		if err != nil {
			return Count{}, err
		}
		total.Add(c)
	}
	vdist, err := CountFile(filepath.Join(root, vdistFile))
	if err != nil {
		return Count{}, err
	}
	total.Files -= vdist.Files
	total.Code -= vdist.Code
	total.Comments -= vdist.Comments
	total.Blank -= vdist.Blank
	return total, nil
}

// Table4 counts this repository's hypervisor code: internal/core plus the
// virtual distributor (KVM/ARM) against internal/kvmx86+internal/x86 (KVM
// x86 model), with the paper's numbers carried alongside by the caller.
// The rest of the shared internal/hv layer is counted by ArchNeutral, not
// charged to either side.
func Table4(root string) ([]Row, Count, Count, error) {
	armTotal, err := CountDir(filepath.Join(root, "internal/core"), false)
	if err != nil {
		return nil, Count{}, Count{}, err
	}
	vdist, err := CountFile(filepath.Join(root, vdistFile))
	if err != nil {
		return nil, Count{}, Count{}, err
	}
	armTotal.Add(vdist)
	x86Total, err := CountDir(filepath.Join(root, "internal/kvmx86"), false)
	if err != nil {
		return nil, Count{}, Count{}, err
	}
	x86p, err := CountDir(filepath.Join(root, "internal/x86"), false)
	if err != nil {
		return nil, Count{}, Count{}, err
	}
	x86Total.Add(x86p)

	var rows []Row
	for _, comp := range Table4Components(root) {
		var c Count
		for _, p := range comp.Paths {
			fc, err := CountFile(p)
			if err != nil {
				return nil, Count{}, Count{}, err
			}
			c.Add(fc)
		}
		rows = append(rows, Row{Component: comp.Name, ARM: c.Code})
	}
	return rows, armTotal, x86Total, nil
}

// Inventory tallies every package under root for the repository overview.
func Inventory(root string) (map[string]Count, error) {
	out := map[string]Count{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		pkg := filepath.Dir(rel)
		c, err := CountFile(path)
		if err != nil {
			return err
		}
		cur := out[pkg]
		cur.Add(c)
		out[pkg] = cur
		return nil
	})
	return out, err
}

// PrintInventory renders the per-package line counts.
func PrintInventory(w io.Writer, inv map[string]Count) {
	keys := make([]string, 0, len(inv))
	for k := range inv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var total Count
	fmt.Fprintf(w, "%-28s %8s %8s %8s %8s\n", "package", "files", "code", "comment", "blank")
	for _, k := range keys {
		c := inv[k]
		total.Add(c)
		fmt.Fprintf(w, "%-28s %8d %8d %8d %8d\n", k, c.Files, c.Code, c.Comments, c.Blank)
	}
	fmt.Fprintf(w, "%-28s %8d %8d %8d %8d\n", "TOTAL", total.Files, total.Code, total.Comments, total.Blank)
}
