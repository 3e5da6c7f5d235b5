package graph

import (
	"math"
	"math/rand"
	"testing"
)

// randomGraph builds a random weighted graph from a seed: size, direction,
// density, and weights (including exact-tie-prone small integer weights on
// odd seeds, to exercise equal-distance tie-breaking).
func randomGraph(seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(40)
	directed := rng.Intn(2) == 0
	g := New(n, directed)
	m := rng.Intn(4 * n)
	integerWeights := seed%2 == 1
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		var w float64
		if integerWeights {
			w = float64(rng.Intn(4)) // exact ties abound
		} else {
			w = rng.Float64() * 10
		}
		if err := g.AddEdge(u, v, w); err != nil {
			panic(err)
		}
	}
	return g
}

// referenceDijkstra is a selection-based (no heap) Dijkstra with the
// canonical settle order: among unsettled vertices, smallest (dist, id)
// first, strict-< relaxation. It is the specification both the CSR radix
// heap and the parent tie-break contract are tested against.
func referenceDijkstra(g *Graph, source int) ([]float64, []int) {
	n := g.N()
	dist := make([]float64, n)
	parent := make([]int, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	dist[source] = 0
	for {
		v := -1
		for u := 0; u < n; u++ {
			if done[u] || math.IsInf(dist[u], 1) {
				continue
			}
			if v == -1 || dist[u] < dist[v] {
				v = u
			}
		}
		if v == -1 {
			return dist, parent
		}
		done[v] = true
		g.Neighbors(v, func(u int, w float64) {
			if nd := dist[v] + w; nd < dist[u] {
				dist[u] = nd
				parent[u] = v
			}
		})
	}
}

// TestCSRMirrorsGraph asserts the conversion is bit-identical: same vertex
// count, same adjacency sequences (targets and weights) in the same order.
func TestCSRMirrorsGraph(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		g := randomGraph(seed)
		c, err := NewCSR(g)
		if err != nil {
			t.Fatalf("seed %d: NewCSR: %v", seed, err)
		}
		if c.N() != g.N() {
			t.Fatalf("seed %d: CSR has %d vertices, graph has %d", seed, c.N(), g.N())
		}
		entries := 0
		for u := 0; u < g.N(); u++ {
			entries += g.Degree(u)
		}
		if c.M() != entries {
			t.Fatalf("seed %d: CSR has %d entries, graph has %d", seed, c.M(), entries)
		}
		for u := 0; u < g.N(); u++ {
			if c.Degree(u) != g.Degree(u) {
				t.Fatalf("seed %d: degree(%d): CSR %d, graph %d", seed, u, c.Degree(u), g.Degree(u))
			}
			var gt []int
			var gw []float64
			g.Neighbors(u, func(v int, w float64) { gt, gw = append(gt, v), append(gw, w) })
			i := 0
			c.Neighbors(u, func(v int, w float64) {
				if v != gt[i] || math.Float64bits(w) != math.Float64bits(gw[i]) {
					t.Fatalf("seed %d: adjacency %d[%d]: CSR (%d,%v), graph (%d,%v)",
						seed, u, i, v, w, gt[i], gw[i])
				}
				i++
			})
		}
	}
}

// checkCSRAgainstGraph runs the three Dijkstra implementations from one
// source and cross-checks them: distances bit-identical across all three,
// parents identical between CSR and the canonical reference, and every
// CSR shortest-path tree edge consistent (dist[v] == dist[parent] + w for
// some edge parent→v).
func checkCSRAgainstGraph(t *testing.T, g *Graph, c *CSR, sc *CSRScratch, source int) {
	t.Helper()
	heapRes, err := g.Dijkstra(source)
	if err != nil {
		t.Fatalf("heap dijkstra(%d): %v", source, err)
	}
	if err := c.DijkstraInto(source, sc); err != nil {
		t.Fatalf("csr dijkstra(%d): %v", source, err)
	}
	refDist, refParent := referenceDijkstra(g, source)
	for v := 0; v < g.N(); v++ {
		db := math.Float64bits(sc.Dist()[v])
		if db != math.Float64bits(heapRes.Dist[v]) {
			t.Fatalf("source %d: dist[%d]: csr %v, heap %v (must be bit-identical)",
				source, v, sc.Dist()[v], heapRes.Dist[v])
		}
		if db != math.Float64bits(refDist[v]) {
			t.Fatalf("source %d: dist[%d]: csr %v, reference %v", source, v, sc.Dist()[v], refDist[v])
		}
		if sc.Parent(v) != refParent[v] {
			t.Fatalf("source %d: parent[%d]: csr %d, canonical reference %d",
				source, v, sc.Parent(v), refParent[v])
		}
		if p := sc.Parent(v); p != -1 {
			found := false
			g.Neighbors(p, func(u int, w float64) {
				if u == v && sc.Dist()[v] == sc.Dist()[p]+w {
					found = true
				}
			})
			if !found {
				t.Fatalf("source %d: parent edge %d->%d does not witness dist %v",
					source, p, v, sc.Dist()[v])
			}
		}
	}
}

// TestCSRDijkstraMatchesPointerGraph is the 200-seed property test: the
// radix-heap CSR Dijkstra agrees bit-for-bit with the binary-heap
// pointer-graph Dijkstra on distances, and with the canonical (dist, id)
// reference on parents, across random graphs with and without exact ties.
func TestCSRDijkstraMatchesPointerGraph(t *testing.T) {
	sc := NewCSRScratch() // reused across all runs: exercises scratch reset
	for seed := int64(0); seed < 200; seed++ {
		g := randomGraph(seed)
		c, err := NewCSR(g)
		if err != nil {
			t.Fatalf("seed %d: NewCSR: %v", seed, err)
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		for trial := 0; trial < 3; trial++ {
			checkCSRAgainstGraph(t, g, c, sc, rng.Intn(g.N()))
		}
	}
}

// TestCSRDijkstraPathsMatch walks full path reconstructions: for every
// reachable target the CSR parent chain is a valid path whose hop-summed
// length telescopes to the reported distance.
func TestCSRDijkstraPathsMatch(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		g := randomGraph(seed)
		c, err := NewCSR(g)
		if err != nil {
			t.Fatalf("seed %d: NewCSR: %v", seed, err)
		}
		res, err := c.Dijkstra(0)
		if err != nil {
			t.Fatalf("seed %d: csr dijkstra: %v", seed, err)
		}
		for v := 0; v < g.N(); v++ {
			if math.IsInf(res.Dist[v], 1) {
				if _, err := res.PathTo(v); err == nil {
					t.Fatalf("seed %d: expected no path to unreachable %d", seed, v)
				}
				continue
			}
			path, err := res.PathTo(v)
			if err != nil {
				t.Fatalf("seed %d: PathTo(%d): %v", seed, v, err)
			}
			if path[0] != 0 || path[len(path)-1] != v {
				t.Fatalf("seed %d: path to %d has endpoints %d..%d", seed, v, path[0], path[len(path)-1])
			}
			for i := 0; i+1 < len(path); i++ {
				if !g.HasEdge(path[i], path[i+1]) {
					t.Fatalf("seed %d: path hop %d->%d is not an edge", seed, path[i], path[i+1])
				}
			}
		}
	}
}

// TestCSRDijkstraOutOfRange mirrors the pointer-graph API contract.
func TestCSRDijkstraOutOfRange(t *testing.T) {
	g := New(3, false)
	c, err := NewCSR(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{-1, 3} {
		if err := c.DijkstraInto(s, NewCSRScratch()); err == nil {
			t.Fatalf("expected error for source %d", s)
		}
		if _, err := c.Dijkstra(s); err == nil {
			t.Fatalf("expected error for source %d", s)
		}
	}
}

// TestCSRDijkstraSteadyStateAllocs pins the zero-allocation contract: a
// warmed scratch runs DijkstraInto without allocating.
func TestCSRDijkstraSteadyStateAllocs(t *testing.T) {
	g := randomGraph(7)
	c, err := NewCSR(g)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewCSRScratch()
	if err := c.DijkstraInto(0, sc); err != nil { // warm the scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := c.DijkstraInto(0, sc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed DijkstraInto allocates %.1f/run, want 0", allocs)
	}
}

// FuzzCSRDijkstra feeds arbitrary byte strings through a deterministic
// graph decoder and cross-checks the CSR radix-heap Dijkstra against both
// the binary-heap and the canonical reference implementation.
func FuzzCSRDijkstra(f *testing.F) {
	f.Add([]byte{}, int64(1))
	f.Add([]byte{0, 1, 2, 1, 2, 4, 0, 2, 8}, int64(2))
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, int64(3))
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 255, 128, 64, 32}, int64(4))
	f.Add([]byte{0, 0, 0, 0, 0, 0}, int64(-9))
	f.Fuzz(func(t *testing.T, data []byte, dirSeed int64) {
		// Decode: n from the first byte, then (u, v, w) triples. Weights
		// are small integers scaled down — exact ties are common, which
		// is precisely the regime where tie-breaking must stay canonical.
		n := 1 + int(func() byte {
			if len(data) == 0 {
				return 0
			}
			return data[0]
		}())%32
		g := New(n, dirSeed%2 == 0)
		for i := 1; i+2 < len(data); i += 3 {
			u, v := int(data[i])%n, int(data[i+1])%n
			w := float64(data[i+2]%16) / 4
			if err := g.AddEdge(u, v, w); err != nil {
				t.Fatalf("AddEdge(%d,%d,%v): %v", u, v, w, err)
			}
		}
		c, err := NewCSR(g)
		if err != nil {
			t.Fatalf("NewCSR: %v", err)
		}
		sc := NewCSRScratch()
		checkCSRAgainstGraph(t, g, c, sc, 0)
		if n > 1 {
			checkCSRAgainstGraph(t, g, c, sc, n-1)
		}
	})
}
