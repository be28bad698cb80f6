package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var regenGolden = flag.Bool("regen", false, "rewrite golden files instead of comparing")

// TestAblationGolden renders the §6 ablation matrix over every ARM
// backend and requires it to match the checked-in golden file byte for
// byte: the simulation has no nondeterminism, so any drift is a real
// cost-model change and must be reviewed (regenerate with -regen).
func TestAblationGolden(t *testing.T) {
	rows, cols, err := AblationTable()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	PrintAblation(&buf, rows, cols)
	t.Log(buf.String())

	checkGolden(t, "ablation", buf.Bytes())

	// Beyond byte-stability, the matrix must show each feature paying off
	// on every backend that has it.
	for _, r := range rows {
		for _, c := range cols {
			v := r.Values[c]
			if v == "" {
				t.Errorf("%s / %s: empty cell", r.Name, c)
			}
			if c == "ARM no VGIC/vtimers" && v != "n/a" {
				t.Errorf("%s / %s: ablations need a VGIC, want n/a, got %q", r.Name, c, v)
			}
			if c != "ARM no VGIC/vtimers" && !bytes.Contains([]byte(v), []byte("-")) {
				t.Errorf("%s / %s: feature must reduce cost, got %q", r.Name, c, v)
			}
		}
	}
}

// checkGolden requires an experiment's rendered output to match
// testdata/<name>.golden byte for byte (or rewrites the file under
// -regen): the simulation has no nondeterminism, so any drift is a real
// cost-model change.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name+".golden")
	if *regenGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run: go test ./internal/bench/ -run %s -regen): %v", t.Name(), err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}
