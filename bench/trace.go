package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one traced interval at a layer boundary. Spans are recorded from
// the benchmark's own files, around calls into a layer's public functions.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index into the span list, -1 for a root
	Op     int64  `json:"op"`     // spans of one operation share it
	// Calls is how many calls of the layer function the span covers; more
	// than one where a single call is too short for the clock to resolve.
	Calls int `json:"calls"`
}

// spanCapPerName bounds how many spans of one name a run keeps: the hot
// workloads issue millions of operations, and a layer metric needs a few
// thousand samples, not all of them.
const spanCapPerName = 50_000

// tracer keeps spans in memory until the run ends. A nil tracer, or one that
// is switched off, records nothing; every method is safe on nil.
type tracer struct {
	epoch   time.Time
	on      bool
	spans   []span
	perName map[string]int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), on: true, perName: make(map[string]int)}
}

// enable switches recording on or off (traced runs alternate windows, so
// that the same run yields the untraced rate the overhead is taken against).
func (t *tracer) enable(on bool) {
	if t != nil {
		t.on = on
	}
}

// begin opens a span and returns its index, or -1 when nothing is recorded.
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil || !t.on || t.perName[name] >= spanCapPerName {
		return -1
	}
	t.perName[name]++
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op, Calls: 1})
	id := int32(len(t.spans) - 1)
	t.spans[id].Start = int64(time.Since(t.epoch))
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.epoch))
	}
}

// endN closes a span that covered several calls of the layer function.
func (t *tracer) endN(id int32, calls int) {
	if id >= 0 {
		t.end(id)
		t.spans[id].Calls = calls
	}
}

// rename gives a closed span the name of its class, for spans whose class is
// known only once the call has returned.
func (t *tracer) rename(id int32, name string) {
	if id >= 0 {
		t.spans[id].Name = name
	}
}

// perCall lists, for every span of a name, its duration divided by the
// calls it covers, in nanoseconds.
func (t *tracer) perCall(name string) []float64 {
	var out []float64
	if t == nil {
		return out
	}
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/float64(s.Calls))
		}
	}
	return out
}

// childTime sums, per parent span index, the time its direct children cover.
// A layer's self time is its span minus this.
func (t *tracer) childTime() map[int32]int64 {
	out := make(map[int32]int64)
	if t == nil {
		return out
	}
	for i := range t.spans {
		if s := &t.spans[i]; s.Parent >= 0 && s.End > 0 {
			out[s.Parent] += s.End - s.Start
		}
	}
	return out
}

// check reports the first span whose parent does not resolve to an earlier
// span enclosing it, or that was never closed.
func (t *tracer) check() error {
	for i := range t.spans {
		s := &t.spans[i]
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) was never closed", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if int(s.Parent) >= i {
			return fmt.Errorf("span %d (%s) has parent %d, which is not an earlier span", i, s.Name, s.Parent)
		}
		if p := &t.spans[s.Parent]; s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) is not inside its parent %d (%s)", i, s.Name, s.Parent, p.Name)
		}
	}
	return nil
}

// writeTrace stores the spans of every traced workload run as one JSON
// document.
func writeTrace(file string, stamp map[string]string, runs []traceRun) error {
	if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
		return err
	}
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Stamp map[string]string `json:"stamp"`
		Runs  []traceRun        `json:"runs"`
	}{stamp, runs})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
