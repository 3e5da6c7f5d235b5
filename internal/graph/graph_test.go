package graph

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustAdd(t *testing.T, g *Graph, u, v int, w float64) {
	t.Helper()
	if err := g.AddEdge(u, v, w); err != nil {
		t.Fatalf("AddEdge(%d,%d,%v): %v", u, v, w, err)
	}
}

func TestNewPanicsOnNegativeN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1, false) did not panic")
		}
	}()
	New(-1, false)
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(3, false)
	cases := []struct {
		u, v int
		w    float64
	}{
		{-1, 0, 1},
		{0, 3, 1},
		{3, 0, 1},
		{0, 1, -0.5},
		{0, 1, math.NaN()},
	}
	for _, c := range cases {
		if err := g.AddEdge(c.u, c.v, c.w); err == nil {
			t.Errorf("AddEdge(%d,%d,%v) succeeded, want error", c.u, c.v, c.w)
		}
	}
	if g.M() != 0 {
		t.Errorf("M() = %d after failed inserts, want 0", g.M())
	}
}

func TestUndirectedEdgeSymmetry(t *testing.T) {
	g := New(4, false)
	mustAdd(t, g, 0, 1, 2.5)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("undirected edge not visible from both endpoints")
	}
	if g.M() != 1 {
		t.Errorf("M() = %d, want 1", g.M())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Errorf("degrees = %d,%d, want 1,1", g.Degree(0), g.Degree(1))
	}
}

func TestDirectedEdgeAsymmetry(t *testing.T) {
	g := New(4, true)
	mustAdd(t, g, 0, 1, 2.5)
	if !g.HasEdge(0, 1) {
		t.Error("arc 0->1 missing")
	}
	if g.HasEdge(1, 0) {
		t.Error("arc 1->0 present in directed graph")
	}
}

func TestEdgesReportedOnce(t *testing.T) {
	g := New(3, false)
	mustAdd(t, g, 0, 1, 1)
	mustAdd(t, g, 1, 2, 2)
	mustAdd(t, g, 2, 0, 3)
	edges := g.Edges()
	if len(edges) != 3 {
		t.Fatalf("Edges() returned %d edges, want 3", len(edges))
	}
	for _, e := range edges {
		if e.From >= e.To {
			t.Errorf("undirected edge (%d,%d) not normalized From<To", e.From, e.To)
		}
	}
}

func TestComponents(t *testing.T) {
	g := New(6, false)
	mustAdd(t, g, 0, 1, 1)
	mustAdd(t, g, 1, 2, 1)
	mustAdd(t, g, 3, 4, 1)
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("Components() = %d components, want 3", len(comps))
	}
	want := [][]int{{0, 1, 2}, {3, 4}, {5}}
	for i, c := range comps {
		if len(c) != len(want[i]) {
			t.Errorf("component %d = %v, want %v", i, c, want[i])
			continue
		}
		for j := range c {
			if c[j] != want[i][j] {
				t.Errorf("component %d = %v, want %v", i, c, want[i])
				break
			}
		}
	}
	if g.Connected() {
		t.Error("Connected() = true for 3-component graph")
	}
}

func TestComponentsDirectedUsesWeakConnectivity(t *testing.T) {
	g := New(3, true)
	mustAdd(t, g, 0, 1, 1)
	mustAdd(t, g, 2, 1, 1)
	if got := len(g.Components()); got != 1 {
		t.Errorf("weak components = %d, want 1", got)
	}
}

func TestConnectedEmptyGraph(t *testing.T) {
	if New(0, false).Connected() {
		t.Error("Connected() = true for empty graph")
	}
}

func TestDijkstraSimple(t *testing.T) {
	// 0 --1-- 1 --1-- 2, plus a heavy shortcut 0 --5-- 2.
	g := New(3, false)
	mustAdd(t, g, 0, 1, 1)
	mustAdd(t, g, 1, 2, 1)
	mustAdd(t, g, 0, 2, 5)
	r, err := g.Dijkstra(0)
	if err != nil {
		t.Fatalf("Dijkstra: %v", err)
	}
	if r.Dist[2] != 2 {
		t.Errorf("Dist[2] = %v, want 2", r.Dist[2])
	}
	path, err := r.PathTo(2)
	if err != nil {
		t.Fatalf("PathTo(2): %v", err)
	}
	want := []int{0, 1, 2}
	if len(path) != 3 || path[0] != want[0] || path[1] != want[1] || path[2] != want[2] {
		t.Errorf("PathTo(2) = %v, want %v", path, want)
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(3, false)
	mustAdd(t, g, 0, 1, 1)
	r, err := g.Dijkstra(0)
	if err != nil {
		t.Fatalf("Dijkstra: %v", err)
	}
	if !math.IsInf(r.Dist[2], 1) {
		t.Errorf("Dist[2] = %v, want +Inf", r.Dist[2])
	}
	if _, err := r.PathTo(2); !errors.Is(err, ErrNoPath) {
		t.Errorf("PathTo(2) error = %v, want ErrNoPath", err)
	}
}

func TestDijkstraSourceOutOfRange(t *testing.T) {
	g := New(2, false)
	if _, err := g.Dijkstra(7); err == nil {
		t.Error("Dijkstra(7) on 2-vertex graph succeeded")
	}
}

func TestPathToOutOfRange(t *testing.T) {
	g := New(2, false)
	mustAdd(t, g, 0, 1, 1)
	r, _ := g.Dijkstra(0)
	if _, err := r.PathTo(9); err == nil {
		t.Error("PathTo(9) succeeded on 2-vertex result")
	}
}

// randomConnectedGraph builds a connected undirected graph: a random spanning
// tree plus extra random edges.
func randomConnectedGraph(rng *rand.Rand, n, extra int) *Graph {
	g := New(n, false)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		u := perm[rng.Intn(i)]
		v := perm[i]
		if err := g.AddEdge(u, v, 1+rng.Float64()*9); err != nil {
			panic(err)
		}
	}
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if err := g.AddEdge(u, v, 1+rng.Float64()*9); err != nil {
			panic(err)
		}
	}
	return g
}

// allPairs is the production all-pairs run: flatten to CSR, then one
// Dijkstra per source.
func allPairs(g *Graph) (*APSP, error) {
	c, err := NewCSR(g)
	if err != nil {
		return nil, err
	}
	return c.AllPairsShortestPaths()
}

// floydWarshall is an independent APSP oracle used to cross-check Dijkstra.
func floydWarshall(g *Graph) [][]float64 {
	n := g.N()
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = math.Inf(1)
			}
		}
	}
	for _, e := range g.Edges() {
		if e.Weight < d[e.From][e.To] {
			d[e.From][e.To] = e.Weight
			d[e.To][e.From] = e.Weight
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if nd := d[i][k] + d[k][j]; nd < d[i][j] {
					d[i][j] = nd
				}
			}
		}
	}
	return d
}

func TestDijkstraMatchesFloydWarshall(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(30)
		g := randomConnectedGraph(rng, n, n)
		want := floydWarshall(g)
		apsp, err := allPairs(g)
		if err != nil {
			t.Fatalf("trial %d: APSP: %v", trial, err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(apsp.Dist(i, j)-want[i][j]) > 1e-9 {
					t.Fatalf("trial %d: dist(%d,%d) = %v, want %v", trial, i, j, apsp.Dist(i, j), want[i][j])
				}
			}
		}
	}
}

func TestAPSPSymmetricForUndirected(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomConnectedGraph(rng, 25, 30)
	apsp, err := allPairs(g)
	if err != nil {
		t.Fatalf("APSP: %v", err)
	}
	for i := 0; i < g.N(); i++ {
		if apsp.Dist(i, i) != 0 {
			t.Errorf("Dist(%d,%d) = %v, want 0", i, i, apsp.Dist(i, i))
		}
		for j := 0; j < g.N(); j++ {
			if math.Abs(apsp.Dist(i, j)-apsp.Dist(j, i)) > 1e-9 {
				t.Errorf("Dist(%d,%d) = %v but Dist(%d,%d) = %v", i, j, apsp.Dist(i, j), j, i, apsp.Dist(j, i))
			}
		}
	}
}

func TestDijkstraTriangleInequalityProperty(t *testing.T) {
	// Shortest-path distances always satisfy the triangle inequality.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		g := randomConnectedGraph(rng, n, n/2)
		apsp, err := allPairs(g)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					if apsp.Dist(i, j) > apsp.Dist(i, k)+apsp.Dist(k, j)+1e-9 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
