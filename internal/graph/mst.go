package graph

import (
	"errors"
	"sort"
)

// ErrDisconnected is returned by spanning-tree construction when the input
// graph (or point set) does not form a single connected component.
var ErrDisconnected = errors.New("graph: graph is disconnected")

// UnionFind is a disjoint-set forest with union by rank and path compression.
type UnionFind struct {
	parent []int
	rank   []int
	sets   int
}

// NewUnionFind creates n singleton sets {0}, {1}, …, {n-1}.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{parent: make([]int, n), rank: make([]int, n), sets: n}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

// Find returns the representative of x's set.
func (uf *UnionFind) Find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

// Union merges the sets containing x and y and reports whether a merge
// happened (false when they were already in the same set).
func (uf *UnionFind) Union(x, y int) bool {
	rx, ry := uf.Find(x), uf.Find(y)
	if rx == ry {
		return false
	}
	if uf.rank[rx] < uf.rank[ry] {
		rx, ry = ry, rx
	}
	uf.parent[ry] = rx
	if uf.rank[rx] == uf.rank[ry] {
		uf.rank[rx]++
	}
	uf.sets--
	return true
}

// Sets returns the current number of disjoint sets.
func (uf *UnionFind) Sets() int { return uf.sets }

// EdgeLess is the canonical total order on oriented edges (From < To):
// ascending Weight, then From, then To. Exact weight ties fall back to the
// endpoint tuple, so sorting by EdgeLess is deterministic and — because a
// total order makes the minimum spanning tree unique — every MST algorithm
// honouring it (the dense Prim scan here, Kruskal, internal/geo's Borůvka
// rounds) produces the same edge set.
func EdgeLess(a, b Edge) bool {
	if a.Weight != b.Weight {
		return a.Weight < b.Weight
	}
	if a.From != b.From {
		return a.From < b.From
	}
	return a.To < b.To
}

// CanonicalizeEdges rewrites an undirected edge list into canonical form
// in place: each edge oriented From < To, then sorted by EdgeLess. Two
// MSTs of the same point set under the tuple order canonicalize to deeply
// equal slices regardless of which algorithm built them.
func CanonicalizeEdges(edges []Edge) {
	for i, e := range edges {
		if e.From > e.To {
			edges[i].From, edges[i].To = e.To, e.From
		}
	}
	sort.Slice(edges, func(i, j int) bool { return EdgeLess(edges[i], edges[j]) })
}

// tupleLess reports whether candidate edge {u1, v1, w1} precedes
// {u2, v2, w2} under the unordered-endpoint form of the EdgeLess total
// order.
func tupleLess(w1 float64, u1, v1 int, w2 float64, u2, v2 int) bool {
	if u1 > v1 {
		u1, v1 = v1, u1
	}
	if u2 > v2 {
		u2, v2 = v2, u2
	}
	return EdgeLess(Edge{From: u1, To: v1, Weight: w1}, Edge{From: u2, To: v2, Weight: w2})
}

// EuclideanMST computes the minimum spanning tree of a complete graph over
// points whose pairwise distances are given by dist. It uses the dense
// O(n²) Prim variant, which is optimal for complete graphs, and returns the
// n-1 tree edges. dist must be symmetric and non-negative.
//
// All comparisons use the (weight, lo endpoint, hi endpoint) tuple order,
// under which the MST is unique: exact distance ties (duplicate or
// symmetric point sets) cannot make the result depend on scan order, and
// the indexed geo.MST produces the identical edge set.
func EuclideanMST(n int, dist func(i, j int) float64) ([]Edge, error) {
	if n <= 0 {
		return nil, errors.New("graph: euclidean mst of empty point set")
	}
	const unseen = -1
	inTree := make([]bool, n)
	best := make([]float64, n)
	bestFrom := make([]int, n)
	for i := range best {
		best[i] = dist(0, i)
		bestFrom[i] = 0
	}
	inTree[0] = true
	tree := make([]Edge, 0, n-1)
	for iter := 1; iter < n; iter++ {
		next := unseen
		for v := 0; v < n; v++ {
			if !inTree[v] && (next == unseen ||
				tupleLess(best[v], bestFrom[v], v, best[next], bestFrom[next], next)) {
				next = v
			}
		}
		if next == unseen {
			return nil, ErrDisconnected
		}
		inTree[next] = true
		tree = append(tree, Edge{From: bestFrom[next], To: next, Weight: best[next]})
		for v := 0; v < n; v++ {
			if !inTree[v] {
				if d := dist(next, v); tupleLess(d, next, v, best[v], bestFrom[v], v) {
					best[v] = d
					bestFrom[v] = next
				}
			}
		}
	}
	return tree, nil
}
