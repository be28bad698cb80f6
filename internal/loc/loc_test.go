package loc

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestCountReaderClassification(t *testing.T) {
	src := `// a comment
package x

/* block
comment */
func f() int { // trailing comments count the line as code
	return 1
}
`
	c, err := CountReader(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if c.Code != 4 {
		t.Errorf("code = %d, want 4", c.Code)
	}
	if c.Comments != 3 {
		t.Errorf("comments = %d, want 3", c.Comments)
	}
	if c.Blank != 1 {
		t.Errorf("blank = %d, want 1", c.Blank)
	}
}

func TestCountDirSelf(t *testing.T) {
	code, err := CountDir(".", false)
	if err != nil {
		t.Fatal(err)
	}
	if code.Files < 1 || code.Code < 50 {
		t.Fatalf("implausible self-count: %+v", code)
	}
	tests, err := CountDir(".", true)
	if err != nil {
		t.Fatal(err)
	}
	if tests.Files < 1 {
		t.Fatalf("no test files counted: %+v", tests)
	}
}

func TestTable4Structure(t *testing.T) {
	rows, armTotal, x86Total, err := Table4("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	if armTotal.Code < 800 {
		t.Fatalf("KVM/ARM total %d implausibly small", armTotal.Code)
	}
	if x86Total.Code < 300 {
		t.Fatalf("x86 total %d implausibly small", x86Total.Code)
	}
	// The split-mode claim: the lowvisor is a small fraction.
	lv, err := CountFile("../../internal/core/lowvisor.go")
	if err != nil {
		t.Fatal(err)
	}
	share := float64(lv.Code) / float64(armTotal.Code)
	if share > 0.30 {
		t.Errorf("lowvisor share %.2f: the Hyp-mode component must stay small (paper: 12.4%%)", share)
	}
}

func TestInventoryCoversKnownPackages(t *testing.T) {
	inv, err := Inventory("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range []string{"internal/core", "internal/arm", "internal/kernel", "internal/mmu", "internal/hv"} {
		if c, ok := inv[pkg]; !ok || c.Code == 0 {
			t.Errorf("package %s missing from inventory", pkg)
		}
	}
}

func TestArchNeutralCountsHVLayer(t *testing.T) {
	c, err := ArchNeutral("../..")
	if err != nil {
		t.Fatal(err)
	}
	if c.Code < 200 {
		t.Fatalf("arch-neutral hv layer %d lines: implausibly small", c.Code)
	}
}

// TestTable4RowsSumToTotal holds the breakdown complete: every KVM/ARM code
// line is in exactly one component row.
func TestTable4RowsSumToTotal(t *testing.T) {
	rows, armTotal, _, err := Table4("../..")
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, r := range rows {
		sum += r.ARM
	}
	if sum != armTotal.Code {
		t.Errorf("component rows sum to %d code lines, KVM/ARM total is %d: a file is in no row or in two", sum, armTotal.Code)
	}
}

// TestExperimentsQuotesTable4 makes EXPERIMENTS.md's Table 4 prose a checked
// output: the KVM/ARM total, the lowvisor lines and share, and the
// arch-neutral hv count it quotes must be what this package computes.
func TestExperimentsQuotesTable4(t *testing.T) {
	raw, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := strings.Join(strings.Fields(string(raw)), " ")
	start := strings.Index(doc, "## Table 4")
	if start < 0 {
		t.Fatal("EXPERIMENTS.md has no Table 4 section")
	}
	doc = doc[start:]
	if end := strings.Index(doc[1:], "## "); end >= 0 {
		doc = doc[:end+1]
	}
	quote := func(re string) []string {
		m := regexp.MustCompile(re).FindStringSubmatch(doc)
		if m == nil {
			t.Fatalf("Table 4 section does not match %q", re)
		}
		for i := range m {
			m[i] = strings.ReplaceAll(m[i], ",", "")
		}
		return m[1:]
	}
	split := quote(`is ([\d,]+) code lines of which the Hyp-mode lowvisor is ([\d,]+) — a ([\d.]+)% share`)
	hvLines := quote("`internal/hv` kit \\(([\\d,]+) lines")[0]

	_, armTotal, _, err := Table4("../..")
	if err != nil {
		t.Fatal(err)
	}
	lv, err := CountFile("../../internal/core/lowvisor.go")
	if err != nil {
		t.Fatal(err)
	}
	neutral, err := ArchNeutral("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ what, quoted, want string }{
		{"KVM/ARM total", split[0], fmt.Sprint(armTotal.Code)},
		{"lowvisor lines", split[1], fmt.Sprint(lv.Code)},
		{"lowvisor share", split[2], fmt.Sprintf("%.1f", 100*float64(lv.Code)/float64(armTotal.Code))},
		{"arch-neutral hv lines", hvLines, fmt.Sprint(neutral.Code)},
	} {
		if c.quoted != c.want {
			t.Errorf("EXPERIMENTS.md quotes %s %s, the code counts %s", c.what, c.quoted, c.want)
		}
	}
}
