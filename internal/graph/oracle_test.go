package graph

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"sort"
)

// This file holds the algorithms the production build replaced, text
// unchanged: the binary-heap pointer-graph Dijkstra that CSR.DijkstraInto
// is checked against (csr_test.go, FuzzCSRDijkstra), and the Kruskal and
// heap-Prim spanning trees that EuclideanMST is checked against
// (mst_test.go). Nothing outside _test.go calls them.

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	v    int
	dist float64
}

// priorityQueue is a concrete binary min-heap of pqItems — the same sift
// rules as container/heap (including which child wins on equal keys), but
// monomorphic: no interface{} boxing, no allocation per push. Keeping the
// comparison and swap order identical to container/heap preserves the
// exact pop sequence for equal-distance entries, so Dijkstra's Parent
// tie-breaks are unchanged from the old boxed implementation.
type priorityQueue []pqItem

func (q *priorityQueue) push(it pqItem) {
	*q = append(*q, it)
	q.up(len(*q) - 1)
}

func (q *priorityQueue) pop() pqItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	q.down(0, n)
	it := h[n]
	*q = h[:n]
	return it
}

func (q *priorityQueue) up(j int) {
	h := *q
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (q *priorityQueue) down(i0, n int) {
	h := *q
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].dist < h[j1].dist {
			j = j2 // = 2*i + 2  // right child
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// Dijkstra computes shortest paths from source to every vertex using a
// binary heap (lazy deletion). It returns an error if source is out of range.
func (g *Graph) Dijkstra(source int) (*PathResult, error) {
	if source < 0 || source >= g.n {
		return nil, fmt.Errorf("graph: source %d out of range [0,%d)", source, g.n)
	}
	dist := make([]float64, g.n)
	parent := make([]int, g.n)
	done := make([]bool, g.n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	dist[source] = 0
	pq := &priorityQueue{{v: source, dist: 0}}
	for len(*pq) > 0 {
		it := pq.pop()
		if done[it.v] {
			continue
		}
		done[it.v] = true
		for _, e := range g.adj[it.v] {
			if nd := it.dist + e.w; nd < dist[e.to] {
				dist[e.to] = nd
				parent[e.to] = it.v
				pq.push(pqItem{v: e.to, dist: nd})
			}
		}
	}
	return &PathResult{Source: source, Dist: dist, Parent: parent}, nil
}

// MSTKruskal computes a minimum spanning tree of an undirected graph with
// Kruskal's algorithm. It returns ErrDisconnected (wrapped) when the graph
// has more than one component.
func (g *Graph) MSTKruskal() ([]Edge, error) {
	if g.directed {
		return nil, errors.New("graph: minimum spanning tree requires an undirected graph")
	}
	if g.n == 0 {
		return nil, errors.New("graph: minimum spanning tree of empty graph")
	}
	edges := g.Edges()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Weight != edges[j].Weight {
			return edges[i].Weight < edges[j].Weight
		}
		// Deterministic tie-break so repeated runs yield the same tree.
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	uf := NewUnionFind(g.n)
	tree := make([]Edge, 0, g.n-1)
	for _, e := range edges {
		if uf.Union(e.From, e.To) {
			tree = append(tree, e)
			if len(tree) == g.n-1 {
				break
			}
		}
	}
	if len(tree) != g.n-1 {
		return nil, fmt.Errorf("graph: kruskal found %d components: %w", uf.Sets(), ErrDisconnected)
	}
	return tree, nil
}

// mstItem is a priority-queue entry for Prim.
type mstItem struct {
	v    int
	from int
	w    float64
}

type mstQueue []mstItem

func (q mstQueue) Len() int            { return len(q) }
func (q mstQueue) Less(i, j int) bool  { return q[i].w < q[j].w }
func (q mstQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *mstQueue) Push(x interface{}) { *q = append(*q, x.(mstItem)) }
func (q *mstQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// MSTPrim computes a minimum spanning tree with Prim's algorithm starting
// from vertex 0. It returns ErrDisconnected (wrapped) when the graph has
// more than one component.
func (g *Graph) MSTPrim() ([]Edge, error) {
	if g.directed {
		return nil, errors.New("graph: minimum spanning tree requires an undirected graph")
	}
	if g.n == 0 {
		return nil, errors.New("graph: minimum spanning tree of empty graph")
	}
	inTree := make([]bool, g.n)
	pq := &mstQueue{{v: 0, from: -1, w: 0}}
	tree := make([]Edge, 0, g.n-1)
	for pq.Len() > 0 {
		it := heap.Pop(pq).(mstItem)
		if inTree[it.v] {
			continue
		}
		inTree[it.v] = true
		if it.from != -1 {
			tree = append(tree, Edge{From: it.from, To: it.v, Weight: it.w})
		}
		for _, e := range g.adj[it.v] {
			if !inTree[e.to] {
				heap.Push(pq, mstItem{v: e.to, from: it.v, w: e.w})
			}
		}
	}
	if len(tree) != g.n-1 {
		return nil, fmt.Errorf("graph: prim reached %d of %d vertices: %w", len(tree)+1, g.n, ErrDisconnected)
	}
	return tree, nil
}
