package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeSnapshot(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareShowsBothEndsOfARename: a gate missing from the new snapshot
// fails the comparison; a gate missing from the old one cannot regress,
// but is printed so a rename is one failure plus one visible line, not one
// failure and silence.
func TestCompareShowsBothEndsOfARename(t *testing.T) {
	oldPath := writeSnapshot(t, "old.json", `{"benchmarks": {"BenchmarkGateKept": 100, "BenchmarkGateOldName": 50}}`)
	newPath := writeSnapshot(t, "new.json", `{"benchmarks": {"BenchmarkGateKept": 101, "BenchmarkGateNewName": 50}}`)

	var out strings.Builder
	err := runCompare(&out, oldPath, newPath, 0.20)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkGateOldName: missing from") {
		t.Errorf("comparison error = %v, want BenchmarkGateOldName reported missing", err)
	}
	var newLine string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "BenchmarkGateNewName") {
			newLine = line
		}
	}
	if !strings.Contains(newLine, "new gate (no baseline)") || !strings.Contains(newLine, "50 ns/op") {
		t.Errorf("output has no new-gate line for BenchmarkGateNewName:\n%s", out.String())
	}

	out.Reset()
	if err := runCompare(&out, oldPath, oldPath, 0.20); err != nil {
		t.Errorf("a snapshot against itself: %v", err)
	}
	if strings.Contains(out.String(), "no baseline") {
		t.Errorf("a snapshot against itself lists new gates:\n%s", out.String())
	}
}
