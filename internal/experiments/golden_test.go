package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hfc/internal/env"
)

// paperTables renders the paper's tables — Table 1, Fig. 9(a), Fig. 9(b),
// Fig. 10, the §4 message table — plus the multi-level and relax ablation
// sections, in the order and at the size of
//
//	experiments -run table1,fig9a,fig9b,fig10,messages,multilevel,ablation-relax -trials 1 -requests 50 -seed 42
//
// The `[… done in …]` timing lines come from cmd/experiments, not from the
// Format functions, so the output has nothing to strip.
func paperTables(t *testing.T) string {
	t.Helper()
	const trials, requests = 1, 50
	specs := env.Table1(42)
	var b strings.Builder
	b.WriteString(FormatTable1(specs))
	fig9, err := RunFig9(specs, trials)
	if err != nil {
		t.Fatalf("RunFig9: %v", err)
	}
	b.WriteString(FormatFig9a(fig9))
	b.WriteString(FormatFig9b(fig9))
	fig10, err := RunFig10(specs, trials, requests)
	if err != nil {
		t.Fatalf("RunFig10: %v", err)
	}
	b.WriteString(FormatFig10(fig10))
	msgs, err := RunMessageOverhead(specs)
	if err != nil {
		t.Fatalf("RunMessageOverhead: %v", err)
	}
	b.WriteString(FormatMessageOverhead(msgs))
	relax, err := RunAblationRelax(specs[0], requests)
	if err != nil {
		t.Fatalf("RunAblationRelax: %v", err)
	}
	b.WriteString(FormatAblationRelax(relax))
	ml, err := RunMultiLevel(specs, requests)
	if err != nil {
		t.Fatalf("RunMultiLevel: %v", err)
	}
	b.WriteString(FormatMultiLevel(ml))
	return b.String()
}

// TestPaperTablesGolden pins every printed number of the paper's tables at
// a reduced size against testdata/paper_tables.golden, compared byte for
// byte. A change to a figure is a change to this file, argued in the
// change log.
func TestPaperTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs seven experiment sections; skipped in -short")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "paper_tables.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := paperTables(t); got != string(want) {
		t.Errorf("paper tables diverged from the recorded run:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
