// Command benchgate runs the BenchmarkGate* regression benchmarks and
// gates changes on the results.
//
//	benchgate -write BENCH_pr3.json          # run the gates, snapshot ns/op
//	benchgate -compare old.json,new.json     # fail on >threshold regressions
//
// Snapshots keep the MINIMUM ns/op and allocs/op over -count runs per
// benchmark — the least-noisy estimator of the true cost on a shared
// machine (benchmarks run under -benchmem). Compare mode exits non-zero if
// any benchmark present in the old snapshot regressed by more than
// -threshold (default 20%) in ns/op or allocs/op, or disappeared. Old
// snapshots without alloc data compare on ns/op only, so the format is
// backward compatible.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// Snapshot is the on-disk format: benchmark name → best ns/op and
// allocs/op.
type Snapshot struct {
	// Benchmarks maps the bare benchmark name (no -GOMAXPROCS suffix) to
	// its minimum observed ns/op.
	Benchmarks map[string]float64 `json:"benchmarks"`
	// Allocs maps the benchmark name to its minimum observed allocs/op.
	// Absent in snapshots taken before alloc gating; such entries compare
	// on ns/op only.
	Allocs map[string]float64 `json:"allocs,omitempty"`
}

func main() {
	var (
		write     = flag.String("write", "", "run the gate benchmarks and write a snapshot to this file")
		compare   = flag.String("compare", "", "compare two snapshots: old.json,new.json")
		threshold = flag.Float64("threshold", 0.20, "max allowed fractional ns/op regression in -compare")
		benchRE   = flag.String("bench", "^BenchmarkGate", "benchmark selection regexp passed to go test")
		benchtime = flag.String("benchtime", "5x", "per-benchmark -benchtime passed to go test")
		count     = flag.Int("count", 2, "-count passed to go test; minimum ns/op wins")
		pkg       = flag.String("pkg", ".", "package containing the gate benchmarks")
	)
	flag.Parse()

	switch {
	case *write != "" && *compare != "":
		fatalf("use -write or -compare, not both")
	case *write != "":
		if err := runWrite(*write, *benchRE, *benchtime, *count, *pkg); err != nil {
			fatalf("%v", err)
		}
	case *compare != "":
		parts := strings.Split(*compare, ",")
		if len(parts) != 2 {
			fatalf("-compare wants old.json,new.json")
		}
		var report strings.Builder
		err := runCompare(&report, parts[0], parts[1], *threshold)
		fmt.Print(report.String())
		if err != nil {
			fatalf("%v", err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1)
}

func runWrite(path, benchRE, benchtime string, count int, pkg string) error {
	args := []string{
		"test", "-run", "^$",
		"-bench", benchRE,
		"-benchmem",
		"-benchtime", benchtime,
		"-count", strconv.Itoa(count),
		pkg,
	}
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	snap, err := parseBenchOutput(string(out))
	if err != nil {
		return err
	}
	if len(snap.Benchmarks) == 0 {
		return fmt.Errorf("no benchmarks matched %q", benchRE)
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	names := sortedNames(snap)
	fmt.Printf("wrote %s (%d benchmarks)\n", path, len(names))
	for _, n := range names {
		fmt.Printf("  %-44s %14.0f ns/op %10.0f allocs/op\n", n, snap.Benchmarks[n], snap.Allocs[n])
	}
	return nil
}

// parseBenchOutput extracts per-benchmark minimum ns/op and allocs/op from
// `go test -bench -benchmem` output lines such as:
//
//	BenchmarkGateRouteResolve-8    50    158831 ns/op    1234 B/op    37 allocs/op
//
// The -N GOMAXPROCS suffix is stripped so snapshots from machines with
// different core counts stay comparable by name.
func parseBenchOutput(out string) (*Snapshot, error) {
	snap := &Snapshot{
		Benchmarks: make(map[string]float64),
		Allocs:     make(map[string]float64),
	}
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var ns, allocs float64
		foundNS, foundAllocs := false, false
		for i := 2; i < len(fields); i++ {
			switch fields[i] {
			case "ns/op":
				v, err := strconv.ParseFloat(fields[i-1], 64)
				if err != nil {
					return nil, fmt.Errorf("bad ns/op on line %q: %w", line, err)
				}
				ns, foundNS = v, true
			case "allocs/op":
				v, err := strconv.ParseFloat(fields[i-1], 64)
				if err != nil {
					return nil, fmt.Errorf("bad allocs/op on line %q: %w", line, err)
				}
				allocs, foundAllocs = v, true
			}
		}
		if !foundNS {
			continue
		}
		if prev, ok := snap.Benchmarks[name]; !ok || ns < prev {
			snap.Benchmarks[name] = ns
		}
		if foundAllocs {
			if prev, ok := snap.Allocs[name]; !ok || allocs < prev {
				snap.Allocs[name] = allocs
			}
		}
	}
	return snap, nil
}

func readSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if snap.Benchmarks == nil {
		return nil, fmt.Errorf("%s: no benchmarks key", path)
	}
	return &snap, nil
}

func runCompare(w *strings.Builder, oldPath, newPath string, threshold float64) error {
	oldSnap, err := readSnapshot(oldPath)
	if err != nil {
		return err
	}
	newSnap, err := readSnapshot(newPath)
	if err != nil {
		return err
	}
	var failures []string
	for _, name := range sortedNames(oldSnap) {
		oldNS := oldSnap.Benchmarks[name]
		newNS, ok := newSnap.Benchmarks[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from %s", name, newPath))
			continue
		}
		ratio := newNS / oldNS
		status := "ok"
		if ratio > 1+threshold {
			status = "REGRESSED"
			failures = append(failures, fmt.Sprintf("%s: %.0f -> %.0f ns/op (%+.1f%%)", name, oldNS, newNS, (ratio-1)*100))
		}
		fmt.Fprintf(w, "  %-44s %14.0f -> %14.0f ns/op  %+7.1f%%  %s\n", name, oldNS, newNS, (ratio-1)*100, status)

		// Alloc gating only applies when the old snapshot recorded allocs
		// for this benchmark (snapshots predating -benchmem have none).
		oldAllocs, haveOld := oldSnap.Allocs[name]
		newAllocs, haveNew := newSnap.Allocs[name]
		if !haveOld {
			continue
		}
		if !haveNew {
			failures = append(failures, fmt.Sprintf("%s: allocs/op missing from %s", name, newPath))
			continue
		}
		if newAllocs > oldAllocs*(1+threshold) {
			failures = append(failures, fmt.Sprintf("%s: %.0f -> %.0f allocs/op", name, oldAllocs, newAllocs))
			fmt.Fprintf(w, "  %-44s %14.0f -> %14.0f allocs/op          REGRESSED\n", name, oldAllocs, newAllocs)
		}
	}
	// A gate only the new snapshot has cannot regress, but a rename shows
	// up as one missing line above and one of these: keep it visible.
	for _, name := range sortedNames(newSnap) {
		if _, ok := oldSnap.Benchmarks[name]; !ok {
			fmt.Fprintf(w, "  %-44s %14s -> %14.0f ns/op           new gate (no baseline)\n", name, "-", newSnap.Benchmarks[name])
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed past %.0f%%:\n  %s",
			len(failures), threshold*100, strings.Join(failures, "\n  "))
	}
	fmt.Fprintf(w, "all %d benchmarks within %.0f%% of %s\n", len(oldSnap.Benchmarks), threshold*100, oldPath)
	return nil
}

func sortedNames(s *Snapshot) []string {
	names := make([]string, 0, len(s.Benchmarks))
	for n := range s.Benchmarks {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
