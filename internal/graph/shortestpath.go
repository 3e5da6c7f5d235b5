package graph

import (
	"errors"
	"fmt"
	"math"

	"hfc/internal/par"
)

// ErrNoPath is returned when no path exists between the requested endpoints.
var ErrNoPath = errors.New("graph: no path between endpoints")

// PathResult holds single-source shortest-path output. Dist[v] is +Inf and
// Parent[v] is -1 for unreachable vertices; Parent[source] is -1.
type PathResult struct {
	Source int
	Dist   []float64
	Parent []int
}

// PathTo reconstructs the vertex sequence from the result's source to v.
// It returns ErrNoPath if v is unreachable.
func (r *PathResult) PathTo(v int) ([]int, error) {
	if v < 0 || v >= len(r.Dist) {
		return nil, fmt.Errorf("graph: vertex %d out of range [0,%d)", v, len(r.Dist))
	}
	if math.IsInf(r.Dist[v], 1) {
		return nil, fmt.Errorf("graph: vertex %d unreachable from %d: %w", v, r.Source, ErrNoPath)
	}
	var rev []int
	for u := v; u != -1; u = r.Parent[u] {
		rev = append(rev, u)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}

// APSP holds an all-pairs shortest-path distance matrix.
type APSP struct {
	n    int
	dist [][]float64
}

// AllPairsShortestPaths runs Dijkstra from every vertex and collects the
// distance matrix. For the graph sizes in this simulator (≤ a few thousand
// vertices) this is faster in practice than Floyd–Warshall on sparse graphs.
// The per-source runs fan out on the par pool: each only reads the
// (immutable) CSR arrays and writes its own distance row, so the matrix is
// bit-identical for any GOMAXPROCS.
func (c *CSR) AllPairsShortestPaths() (*APSP, error) {
	dist := make([][]float64, c.n)
	if err := par.ForErr(c.n, func(s int) error {
		sc := scratchPool.Get().(*CSRScratch)
		defer scratchPool.Put(sc)
		if err := c.DijkstraInto(s, sc); err != nil {
			return fmt.Errorf("graph: apsp from %d: %w", s, err)
		}
		dist[s] = append([]float64(nil), sc.Dist()...)
		return nil
	}); err != nil {
		return nil, err
	}
	return &APSP{n: c.n, dist: dist}, nil
}

// N returns the number of vertices the matrix covers.
func (m *APSP) N() int { return m.n }

// Symmetrize forces Dist(u,v) == Dist(v,u) by taking the minimum of the two
// directions. On undirected graphs the two values can differ by a few ULPs
// because Dijkstra accumulates edge weights in different orders; callers
// that treat distances as a metric (clustering, MST) need exact symmetry.
func (m *APSP) Symmetrize() {
	for u := 0; u < m.n; u++ {
		for v := u + 1; v < m.n; v++ {
			d := m.dist[u][v]
			if m.dist[v][u] < d {
				d = m.dist[v][u]
			}
			m.dist[u][v] = d
			m.dist[v][u] = d
		}
	}
}

// Dist returns the shortest-path distance from u to v (+Inf if unreachable).
func (m *APSP) Dist(u, v int) float64 { return m.dist[u][v] }
