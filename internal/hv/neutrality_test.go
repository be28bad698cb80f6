// Backend neutrality lint: the generic layers above the backend kit —
// internal/bench, internal/workloads, internal/fleet and internal/net —
// must drive hypervisors solely through internal/hv. A direct import of a
// concrete backend is a layering regression.
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
}

func TestConsumersAreBackendNeutral(t *testing.T) {
	for _, dir := range []string{"../bench", "../workloads", "../fleet", "../net"} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			path := filepath.Join(dir, e.Name())
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			for _, imp := range f.Imports {
				ip, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				for _, bad := range forbidden {
					if ip == bad {
						t.Errorf("%s imports %s: generic consumers must use kvmarm/internal/hv", path, ip)
					}
				}
			}
		}
	}
}
