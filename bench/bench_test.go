package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestDeclarationMatchesBinary holds BENCHMARK.json and the binary's own
// metric lists together: same workloads, same metric names in the same order,
// same units, bounds and directions.
func TestDeclarationMatchesBinary(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declaration
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(decl.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the binary runs %d", len(decl.Workloads), len(workloadNames))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the binary", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, declared []declaredMetric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Fatalf("BENCHMARK.json declares %d %s metrics, the binary emits %d", len(declared), kind, len(defs))
		}
		seen := make(map[string]bool)
		for i, d := range defs {
			got := declared[i]
			better := "higher"
			if d.lower {
				better = "lower"
			}
			if got.Name != d.name || got.Unit != d.unit || got.Better != better {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s] %s, the binary %s [%s] %s", kind, i, got.Name, got.Unit, got.Better, d.name, d.unit, better)
			}
			if !nameRE.MatchString(d.name) {
				t.Errorf("%s metric name %q is outside [A-Za-z0-9_.-]", kind, d.name)
			}
			if seen[d.name] {
				t.Errorf("%s metric %q is declared twice", kind, d.name)
			}
			seen[d.name] = true
			switch {
			//hfcvet:ignore floatdist both sides are the same decimal literal, or the declaration is wrong
			case bounded && (got.Bound == nil || *got.Bound != d.bound):
				t.Errorf("%s metric %s: bound differs from the binary's %g", kind, d.name, d.bound)
			case !bounded && got.Bound != nil:
				t.Errorf("%s metric %s has a bound", kind, d.name)
			}
		}
	}
	check("end-to-end", decl.EndToEnd, endToEnd, true)
	check("per-layer", decl.PerLayer, perLayer, false)
}

// lastLine parses the JSON object a single-workload run prints last.
func lastLine(t *testing.T, out string) (correct bool, metrics map[string]struct {
	Value float64
	Unit  string
}) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var obj struct {
		Correct   bool
		Attempted int64
		Failed    int64
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &obj); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	if obj.Attempted < 1 || obj.Failed != 0 {
		t.Errorf("attempted %d, failed %d\n%s", obj.Attempted, obj.Failed, out)
	}
	return obj.Correct, obj.Metrics
}

// TestWorkloadsAtToySize runs all four workloads through the code the full
// benchmark runs, at a size that takes a second: every run emits exactly the
// declared metrics, no operation fails, the spans' parents resolve, and two
// runs with one seed resolve the same paths.
func TestWorkloadsAtToySize(t *testing.T) {
	untraced := make(map[string]*result)
	for _, name := range workloadNames {
		var buf bytes.Buffer
		o := &options{workload: name, seed: 1, seconds: 0.05, trace: "0", sz: &toy, out: &printer{w: &buf}}
		ok, err := o.runOne()
		if err != nil || !ok {
			t.Fatalf("%s: ok=%v err=%v\n%s", name, ok, err, buf.String())
		}
		untraced[name] = o.results[0]
		correct, metrics := lastLine(t, buf.String())
		if !correct {
			t.Errorf("%s: not correct\n%s", name, buf.String())
		}
		if len(metrics) != len(endToEnd) {
			t.Errorf("%s emitted %d end-to-end metrics, declared %d", name, len(metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			if m, have := metrics[d.name]; !have || m.Unit != d.unit || m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v", name, d.name, m)
			}
		}
	}

	// A traced run of one workload also runs the other three's openings and
	// must emit every per-layer row; its spans go to a file.
	var buf bytes.Buffer
	file := t.TempDir() + "/spans.json"
	o := &options{workload: "protocol-sim", seed: 1, seconds: 0.05, trace: file, sz: &toy, out: &printer{w: &buf}}
	ok, err := o.runOne()
	if err != nil || !ok {
		t.Fatalf("traced: ok=%v err=%v\n%s", ok, err, buf.String())
	}
	_, metrics := lastLine(t, buf.String())
	if len(metrics) != len(perLayer) {
		t.Errorf("traced run emitted %d per-layer metrics, declared %d", len(metrics), len(perLayer))
	}
	for _, d := range perLayer {
		if m, have := metrics[d.name]; !have || m.Unit != d.unit {
			t.Errorf("per-layer metric %s = %v", d.name, m)
		}
	}
	// The runs themselves fail when the bootstrap stages do not sum to
	// core.Bootstrap (see bootstrapLayers); here the row must be a distance.
	if g := metrics["core.stage_sum_gap"].Value; g < 0 || g > 1 {
		t.Errorf("core.stage_sum_gap = %g: the staged bootstrap does not account for core.Bootstrap", g)
	}
	for _, run := range o.traceRuns {
		tr := &tracer{spans: run.Spans}
		if err := tr.check(); err != nil {
			t.Errorf("%s: %v", run.Workload, err)
		}
		if len(run.Spans) == 0 {
			t.Errorf("%s recorded no spans", run.Workload)
		}
	}
	if len(o.traceRuns) != len(workloadNames) {
		t.Errorf("traced run kept spans of %d workloads, want %d", len(o.traceRuns), len(workloadNames))
	}
	if st, err := os.Stat(file); err != nil || st.Size() == 0 {
		t.Errorf("span file: %v", err)
	}

	// The determinism receipt: the traced runs had the untraced runs' seed
	// and other lengths, and must agree with them bit for bit on the digest
	// of the resolved paths and on path_stretch.
	for _, res := range o.results {
		want := untraced[res.workload]
		//hfcvet:ignore floatdist the receipt is bit-for-bit equality, not closeness
		if res.digest != want.digest || res.e2e["path_stretch"] != want.e2e["path_stretch"] {
			t.Errorf("%s: digest %016x traced, %016x untraced; path_stretch %v, %v", res.workload,
				res.digest, want.digest, res.e2e["path_stretch"], want.e2e["path_stretch"])
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) → [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %g, %g, want 3.5, 31", q1, q3)
	}
}
