package svc

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
	"testing"
)

// The request path's front matter — Validate, Fingerprint, HasCanonical —
// runs on every resolve, in stack scratch. These tests hold it to the
// map-based oracle (oracle_test.go) and to Canonical, on both sides of every
// stack/heap boundary, and pin the success path at zero allocations.

// graphText renders g in the fuzz target's input format: every name followed
// by ',', then '|', then every edge as "tail>head;".
func graphText(g *Graph) string {
	var b strings.Builder
	for _, s := range g.Services {
		b.WriteString(string(s))
		b.WriteByte(',')
	}
	b.WriteByte('|')
	for _, e := range g.Edges {
		fmt.Fprintf(&b, "%d>%d;", e[0], e[1])
	}
	return b.String()
}

// parseGraphText is graphText's inverse, total on arbitrary input: text after
// the last terminator and edges that are not two integers are dropped.
// Nothing is validated — empty and duplicate names, self-loops, cycles and
// out-of-range endpoints all come through.
func parseGraphText(s string) *Graph {
	names, edges, _ := strings.Cut(s, "|")
	g := &Graph{}
	parts := strings.Split(names, ",")
	for _, name := range parts[:len(parts)-1] {
		g.Services = append(g.Services, Service(name))
	}
	parts = strings.Split(edges, ";")
	for _, edge := range parts[:len(parts)-1] {
		tail, head, _ := strings.Cut(edge, ">")
		u, uerr := strconv.Atoi(tail)
		v, verr := strconv.Atoi(head)
		if uerr == nil && verr == nil {
			g.Edges = append(g.Edges, [2]int{u, v})
		}
	}
	return g
}

func chainGraph(n int) *Graph {
	g := &Graph{}
	for i := 0; i < n; i++ {
		g.Services = append(g.Services, Service("s"+strconv.Itoa(i)))
		if i > 0 {
			g.Edges = append(g.Edges, [2]int{i - 1, i})
		}
	}
	return g
}

// denseDAG is a DAG on n vertices with the first m forward edges (i, j),
// i < j, in lexicographic order.
func denseDAG(n, m int) *Graph {
	g := chainGraph(n)
	g.Edges = nil
	for i := 0; i < n && len(g.Edges) < m; i++ {
		for j := i + 1; j < n && len(g.Edges) < m; j++ {
			g.Edges = append(g.Edges, [2]int{i, j})
		}
	}
	return g
}

// longNameGraph is one service whose Canonical form is exactly size bytes.
func longNameGraph(t testing.TB, size int) *Graph {
	for l := 1; l < size; l++ {
		g := &Graph{Services: []Service{Service(strings.Repeat("x", l))}}
		if len(g.Canonical()) == size {
			return g
		}
	}
	t.Fatalf("no single-service graph renders to %d bytes", size)
	return nil
}

func fig2b() *Graph {
	return &Graph{
		Services: []Service{"s0", "s1", "s2", "s3"},
		Edges:    [][2]int{{0, 1}, {3, 1}, {1, 2}, {3, 2}},
	}
}

// frontMatterCorpus is the seed corpus of FuzzGraphFrontMatter: every check
// and error of Validate, and each stack/heap boundary from both sides.
func frontMatterCorpus(t testing.TB) []*Graph {
	withEdges := func(g *Graph, edges ...[2]int) *Graph {
		g.Edges = append(g.Edges, edges...)
		return g
	}
	return []*Graph{
		{},
		chainGraph(1), chainGraph(4), chainGraph(10),
		fig2b(),
		{Services: []Service{"a", "b", "a"}},
		{Services: []Service{""}},
		{Services: []Service{"a", ""}, Edges: [][2]int{{0, 1}}},
		{Services: []Service{"a", "b"}, Edges: [][2]int{{1, 1}}},
		{Services: []Service{"a", "b"}, Edges: [][2]int{{0, 2}}},
		{Services: []Service{"a", "b"}, Edges: [][2]int{{-1, 0}}},
		{Services: []Service{"a", "b"}, Edges: [][2]int{{0, 1}, {1, 0}}},
		{Services: []Service{"a", "b", "c", "d"}, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 1}}},
		withEdges(chainGraph(4), [2]int{0, 1}, [2]int{0, 1}),
		// The name set: pairwise up to stackServices, a map above.
		chainGraph(stackServices), chainGraph(stackServices + 1),
		{Services: append(chainGraph(stackServices).Services, "s0")},
		// The Kahn scratch: stack up to stackEdges edges, heap above.
		denseDAG(stackServices, stackEdges), denseDAG(stackServices, stackEdges+1),
		withEdges(chainGraph(stackServices+1), [2]int{stackServices, 0}),
		// HasCanonical's buffer: one byte under, at, and over.
		longNameGraph(t, canonicalStackBytes-1), longNameGraph(t, canonicalStackBytes), longNameGraph(t, canonicalStackBytes+1),
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// FuzzGraphFrontMatter holds the heap-free front matter to its references on
// arbitrary graphs: Validate returns the oracle's verdict error string for
// error string, Fingerprint hashes exactly the Canonical form, and the
// collision guard HasCanonical agrees with comparing Canonical strings —
// against every corpus graph, in both directions.
func FuzzGraphFrontMatter(f *testing.F) {
	if got, want := errText((*Graph)(nil).Validate()), errText(validateOracle(nil)); got != want {
		f.Fatalf("nil graph: Validate = %s, oracle = %s", got, want)
	}
	corpus := frontMatterCorpus(f)
	for _, g := range corpus {
		f.Add(graphText(g))
	}
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > 4096 {
			t.Skip() // the duplicate-name scan is pairwise; longer inputs add nothing
		}
		g := parseGraphText(text)
		if got, want := errText(g.Validate()), errText(validateOracle(g)); got != want {
			t.Fatalf("Validate(%q) = %s, oracle = %s", text, got, want)
		}
		canonical := g.Canonical()
		if got := string(g.AppendCanonical(nil)); got != canonical {
			t.Fatalf("AppendCanonical = %q, Canonical = %q", got, canonical)
		}
		if got, want := g.Fingerprint(), FingerprintCanonical(canonical); got != want {
			t.Fatalf("Fingerprint(%q) = %x, FingerprintCanonical(Canonical) = %x", text, got, want)
		}
		if !g.HasCanonical(canonical) {
			t.Fatalf("graph %q does not have its own canonical form", text)
		}
		if got, want := CanonicalServiceMask(canonical), serviceMask(g.Services); got != want {
			t.Fatalf("CanonicalServiceMask(%q) = %#x, the services' bits are %#x", canonical, got, want)
		}
		for _, c := range corpus {
			cc := c.Canonical()
			if got, want := g.HasCanonical(cc), canonical == cc; got != want {
				t.Fatalf("(%q).HasCanonical(%q) = %v, want %v", text, cc, got, want)
			}
			if got, want := c.HasCanonical(canonical), canonical == cc; got != want {
				t.Fatalf("(%q).HasCanonical(%q) = %v, want %v", graphText(c), canonical, got, want)
			}
		}
	})
}

// serviceMask is the union of the services' MaskBits.
func serviceMask(services []Service) uint64 {
	var mask uint64
	for _, s := range services {
		mask |= s.MaskBit()
	}
	return mask
}

// TestCanonicalServiceMask: the mask read from a canonical form is the mask
// of the graph's services, whatever the names hold — the separators of the
// format, digits that look like a length prefix — with or without edges, and a
// string that is not a canonical form gets every bit.
func TestCanonicalServiceMask(t *testing.T) {
	for _, g := range []*Graph{
		{},
		{Services: []Service{"a"}},
		{Services: []Service{"a", "b", "c"}},
		{Services: []Service{"a:b", "c;d", "e|f", "12:x;", "|", ";", ":", "7"}},
		{Services: []Service{"3:abc;", "s0"}, Edges: [][2]int{{0, 1}}},
		{Services: []Service{"0123456789", Service(strings.Repeat("9", 20))}},
		chainGraph(10), fig2b(), longNameGraph(t, canonicalStackBytes+1),
	} {
		if got, want := CanonicalServiceMask(g.Canonical()), serviceMask(g.Services); got != want {
			t.Errorf("CanonicalServiceMask(%q) = %#x, the services' bits are %#x", g.Canonical(), got, want)
		}
	}
	for _, bad := range []string{
		"", "a", "1:a;", "1:a", "1:ab;|", "2:a;|", ":a;|", "x:a;|", "1a;|",
		"99999999999999999999:a;|", "-1:a;|", "1:a;2:bc|",
	} {
		if got := CanonicalServiceMask(bad); got != ^uint64(0) {
			t.Errorf("CanonicalServiceMask(%q) = %#x, want every bit", bad, got)
		}
	}
	if n := bits.OnesCount64(serviceMask(chainGraph(40).Services)); n < 24 {
		t.Errorf("s0 … s39 take %d of 64 bits; the hash does not spread them", n)
	}
}

// TestGraphTextRoundTrip keeps the fuzz target honest: every corpus graph
// reaches the fuzz body as itself.
func TestGraphTextRoundTrip(t *testing.T) {
	for _, g := range frontMatterCorpus(t) {
		if got := parseGraphText(graphText(g)); got.Canonical() != g.Canonical() {
			t.Errorf("graph %q round-trips to %q", g.Canonical(), got.Canonical())
		}
	}
}

var fingerprintSink uint64

// TestGraphFrontMatterAllocatesNothing is the run-time pin behind the
// //hfc:hotpath budgets of Validate, Fingerprint and HasCanonical: hotalloc
// counts the sites in a body, this counts what a call — callees included —
// takes from the heap.
func TestGraphFrontMatterAllocatesNothing(t *testing.T) {
	for name, g := range map[string]*Graph{"chain of 10": chainGraph(10), "Fig. 2b": fig2b()} {
		canonical := g.Canonical()
		for what, call := range map[string]func(){
			"Validate": func() {
				if err := g.Validate(); err != nil {
					t.Fatal(err)
				}
			},
			"Fingerprint": func() { fingerprintSink = g.Fingerprint() },
			"HasCanonical": func() {
				if !g.HasCanonical(canonical) {
					t.Fatal("graph does not have its own canonical form")
				}
			},
		} {
			if allocs := testing.AllocsPerRun(100, call); allocs != 0 {
				t.Errorf("%s on the %s allocates %v objects per call, want 0", what, name, allocs)
			}
		}
	}
}
