package main

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func TestParseRuns(t *testing.T) {
	for _, tc := range []struct {
		name, runs string
		want       []string // nil: an error naming bad
		bad        string
	}{
		{name: "default", runs: "all", want: []string{"all"}},
		{name: "one known", runs: "fig10", want: []string{"fig10"}},
		{name: "several known", runs: "table1,fig9a,ablation-churn", want: []string{"table1", "fig9a", "ablation-churn"}},
		{name: "whitespace", runs: " table1 ,\tqos", want: []string{"table1", "qos"}},
		{name: "all beside a name", runs: "all,serve", want: []string{"all", "serve"}},
		{name: "unknown", runs: "fig11", bad: `"fig11"`},
		{name: "mixed", runs: "table1,fig11,qos", bad: `"fig11"`},
		{name: "case matters", runs: "Fig10", bad: `"Fig10"`},
		{name: "empty", runs: "", bad: `""`},
		{name: "trailing comma", runs: "table1,", bad: `""`},
	} {
		got, err := parseRuns(tc.runs)
		if tc.want == nil {
			if err == nil {
				t.Errorf("%s: parseRuns(%q) = %v, want an error", tc.name, tc.runs, got)
				continue
			}
			for _, part := range []string{tc.bad, "valid names: all, table1,", "ablation-churn"} {
				if !strings.Contains(err.Error(), part) {
					t.Errorf("%s: error %q does not contain %q", tc.name, err, part)
				}
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: parseRuns(%q): %v", tc.name, tc.runs, err)
			continue
		}
		want := map[string]bool{}
		for _, name := range tc.want {
			want[name] = true
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: parseRuns(%q) = %v, want %v", tc.name, tc.runs, got, want)
		}
	}
}

// TestRunNamesCoverEverySection fails when run() grows a section that
// parseRuns would reject, or runNames keeps a name run() no longer has.
func TestRunNamesCoverEverySection(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	inSource := map[string]bool{}
	for _, m := range regexp.MustCompile(`section\("([^"]+)"\)`).FindAllSubmatch(src, -1) {
		inSource[string(m[1])] = true
	}
	listed := map[string]bool{}
	for _, name := range runNames {
		listed[name] = true
	}
	if !reflect.DeepEqual(inSource, listed) {
		t.Errorf("run() has sections %v, runNames lists %v", inSource, listed)
	}
}
