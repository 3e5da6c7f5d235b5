// Package graph implements the weighted-graph machinery the HFC framework is
// built on: adjacency-list graphs, Dijkstra and all-pairs shortest paths,
// Prim and Kruskal minimum spanning trees, union-find, connected components,
// and shortest paths over directed acyclic graphs.
//
// Vertices are dense integer IDs in [0, N). All weights are float64 and must
// be non-negative for the shortest-path algorithms.
package graph

import (
	"fmt"
	"math"
	"sort"
)

// Edge is a weighted edge between two vertices. In undirected graphs the
// (From, To) order is insignificant.
type Edge struct {
	From, To int
	Weight   float64
}

// Graph is a weighted graph stored as adjacency lists. The zero value is not
// usable; construct instances with New.
type Graph struct {
	n        int
	directed bool
	adj      [][]halfEdge
	numEdges int
}

// halfEdge is the adjacency-list record: the far endpoint and the weight.
type halfEdge struct {
	to int
	w  float64
}

// New creates a graph with n vertices and no edges. If directed is true,
// AddEdge inserts arcs; otherwise it inserts symmetric edges.
func New(n int, directed bool) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Graph{n: n, directed: directed, adj: make([][]halfEdge, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges (arcs for directed graphs).
func (g *Graph) M() int { return g.numEdges }

// AddEdge inserts an edge (or arc) from u to v with weight w. It returns an
// error if either endpoint is out of range or the weight is negative or NaN.
// Parallel edges are permitted; shortest-path algorithms simply consider all
// of them.
func (g *Graph) AddEdge(u, v int, w float64) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	if math.IsNaN(w) || w < 0 {
		return fmt.Errorf("graph: edge (%d,%d) has invalid weight %v", u, v, w)
	}
	g.adj[u] = append(g.adj[u], halfEdge{to: v, w: w})
	if !g.directed {
		g.adj[v] = append(g.adj[v], halfEdge{to: u, w: w})
	}
	g.numEdges++
	return nil
}

// HasEdge reports whether at least one edge from u to v exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n {
		return false
	}
	for _, e := range g.adj[u] {
		if e.to == v {
			return true
		}
	}
	return false
}

// Degree returns the number of adjacency entries at u (out-degree for
// directed graphs).
func (g *Graph) Degree(u int) int {
	if u < 0 || u >= g.n {
		return 0
	}
	return len(g.adj[u])
}

// Neighbors calls fn for every adjacency entry of u.
func (g *Graph) Neighbors(u int, fn func(v int, w float64)) {
	if u < 0 || u >= g.n {
		return
	}
	for _, e := range g.adj[u] {
		fn(e.to, e.w)
	}
}

// Edges returns every edge of the graph. For undirected graphs each edge is
// reported once with From < To.
func (g *Graph) Edges() []Edge {
	var out []Edge
	for u := 0; u < g.n; u++ {
		for _, e := range g.adj[u] {
			if g.directed || u < e.to {
				out = append(out, Edge{From: u, To: e.to, Weight: e.w})
			}
		}
	}
	return out
}

// Components returns the connected components of an undirected graph (weakly
// connected components for directed graphs, treating arcs as symmetric).
// Each component is a sorted slice of vertex IDs.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.n)
	// Build reverse reachability lazily for directed graphs by scanning a
	// symmetric view.
	sym := g
	if g.directed {
		sym = New(g.n, false)
		for u := 0; u < g.n; u++ {
			for _, e := range g.adj[u] {
				// Error impossible: endpoints and weights were validated
				// when the original edge was inserted.
				_ = sym.AddEdge(u, e.to, e.w)
			}
		}
	}
	var comps [][]int
	stack := make([]int, 0, g.n)
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		seen[s] = true
		stack = append(stack[:0], s)
		comp := []int{}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, e := range sym.adj[u] {
				if !seen[e.to] {
					seen[e.to] = true
					stack = append(stack, e.to)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// Connected reports whether the graph has exactly one connected component
// (and at least one vertex).
func (g *Graph) Connected() bool {
	if g.n == 0 {
		return false
	}
	return len(g.Components()) == 1
}
