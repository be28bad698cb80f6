// Backend neutrality lint: the generic layers above the backend kit —
// internal/bench, internal/workloads, internal/fleet, internal/net, the
// commands, the examples and the benchmark — must drive hypervisors
// solely through internal/hv and pick configurations by name. A direct
// import of a concrete backend, or of an x86 cost profile (a platform
// table row's data), is a layering regression. A second lint keeps
// internal/vhe down to its world switch.
package hv_test

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var forbidden = []string{
	"kvmarm/internal/core",
	"kvmarm/internal/kvmx86",
	"kvmarm/internal/vhe",
	"kvmarm/internal/x86",
}

func TestConsumersAreBackendNeutral(t *testing.T) {
	var dirs []string
	for _, pat := range []string{"../bench", "../workloads", "../fleet", "../net", "../../cmd/*", "../../examples/*", "../../benchmark"} {
		m, err := filepath.Glob(pat)
		if err != nil || len(m) == 0 {
			t.Fatalf("%s: no directory (%v)", pat, err)
		}
		dirs = append(dirs, m...)
	}
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			path := filepath.Join(dir, e.Name())
			for _, ip := range imports(t, path) {
				for _, bad := range forbidden {
					if ip == bad {
						t.Errorf("%s imports %s: generic consumers must use kvmarm/internal/hv", path, ip)
					}
				}
			}
		}
	}
}

// imports lists the import paths of the Go file at path.
func imports(t *testing.T, path string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	var out []string
	for _, imp := range f.Imports {
		ip, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out = append(out, ip)
	}
	return out
}

// TestVHEIsOnlyAWorldSwitch keeps the ARM family's split from regrowing:
// exit decoding, the block runner and vtimer multiplexing live in
// internal/core alone, so no non-test file of internal/vhe may import the
// instruction set or the timer package.
func TestVHEIsOnlyAWorldSwitch(t *testing.T) {
	files, err := filepath.Glob("../vhe/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("../vhe: no Go files (%v)", err)
	}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		for _, ip := range imports(t, path) {
			if ip == "kvmarm/internal/isa" || ip == "kvmarm/internal/timer" {
				t.Errorf("%s imports %s: exit handling and vtimer code belong to internal/core", path, ip)
			}
		}
	}
}
