package graph

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// CSR is a compressed-sparse-row mirror of a Graph: the adjacency lists
// flattened into three packed arrays with int32 vertex ids. off has n+1
// entries; the adjacency of vertex u is to[off[u]:off[u+1]] with matching
// weights in w, in exactly the order the pointer graph stores it (so any
// order-sensitive traversal sees the same edge sequence). A CSR is
// immutable after construction; build it once and share it freely across
// goroutines.
type CSR struct {
	n        int
	directed bool
	off      []int32
	to       []int32
	w        []float64
}

// NewCSR flattens g into CSR form. It fails only when the graph is too
// large for int32 indexing (over 2^31-1 vertices or adjacency entries) —
// far beyond the simulator's reach, but checked rather than truncated.
func NewCSR(g *Graph) (*CSR, error) {
	if g.n > math.MaxInt32 {
		return nil, fmt.Errorf("graph: %d vertices exceed int32 CSR indexing", g.n)
	}
	entries := 0
	for u := 0; u < g.n; u++ {
		entries += len(g.adj[u])
	}
	if entries > math.MaxInt32 {
		return nil, fmt.Errorf("graph: %d adjacency entries exceed int32 CSR indexing", entries)
	}
	c := &CSR{
		n:        g.n,
		directed: g.directed,
		off:      make([]int32, g.n+1),
		to:       make([]int32, entries),
		w:        make([]float64, entries),
	}
	pos := int32(0)
	for u := 0; u < g.n; u++ {
		c.off[u] = pos
		for _, e := range g.adj[u] {
			c.to[pos] = int32(e.to)
			c.w[pos] = e.w
			pos++
		}
	}
	c.off[g.n] = pos
	return c, nil
}

// N returns the number of vertices.
func (c *CSR) N() int { return c.n }

// M returns the number of adjacency entries (2x the edge count for
// undirected graphs).
func (c *CSR) M() int { return len(c.to) }

// Degree returns the number of adjacency entries at u (out-degree for
// directed graphs).
func (c *CSR) Degree(u int) int {
	if u < 0 || u >= c.n {
		return 0
	}
	return int(c.off[u+1] - c.off[u])
}

// Neighbors calls fn for every adjacency entry of u, in storage order.
func (c *CSR) Neighbors(u int, fn func(v int, w float64)) {
	if u < 0 || u >= c.n {
		return
	}
	for i := c.off[u]; i < c.off[u+1]; i++ {
		fn(int(c.to[i]), c.w[i])
	}
}

// radixItem is one entry of the monotone radix heap: the distance's bit
// pattern and the vertex it keys.
type radixItem struct {
	key uint64
	v   int32
}

// CSRScratch is the reusable state for CSR Dijkstra runs: distance/parent/
// settled arrays plus the radix-heap buckets. A scratch is not safe for
// concurrent use; give each worker its own (e.g. via sync.Pool) and reuse
// it across runs — after the first run at a given size, DijkstraInto
// performs no allocations.
type CSRScratch struct {
	dist   []float64
	parent []int32
	done   []bool
	// buckets is an Ahuja-style radix heap over the distances' IEEE-754
	// bit patterns: for non-negative floats, bit-pattern order equals
	// numeric order, so uint64 radix machinery applies unchanged. Bucket
	// index is the position of the highest bit in which a key differs
	// from lastMin (0 for equal keys), hence 65 buckets.
	buckets [65][]radixItem
	live    int
	lastMin uint64
}

// NewCSRScratch returns an empty scratch; it grows on first use.
func NewCSRScratch() *CSRScratch { return &CSRScratch{} }

// Dist returns the distance row of the last DijkstraInto run. The slice
// aliases the scratch; it is valid until the next run.
func (s *CSRScratch) Dist() []float64 { return s.dist }

// Parent returns v's shortest-path-tree parent from the last run (-1 for
// the source and unreachable vertices).
func (s *CSRScratch) Parent(v int) int { return int(s.parent[v]) }

// reset sizes the arrays for n vertices and clears them.
func (s *CSRScratch) reset(n int) {
	if cap(s.dist) < n {
		s.dist = make([]float64, n)
		s.parent = make([]int32, n)
		s.done = make([]bool, n)
	}
	s.dist = s.dist[:n]
	s.parent = s.parent[:n]
	s.done = s.done[:n]
	inf := math.Inf(1)
	for i := range s.dist {
		s.dist[i] = inf
		s.parent[i] = -1
		s.done[i] = false
	}
	for i := range s.buckets {
		s.buckets[i] = s.buckets[i][:0]
	}
	s.live = 0
	s.lastMin = 0
}

// bucketFor places a key relative to lastMin: equal keys land in bucket 0,
// otherwise the index of the highest differing bit plus one.
func (s *CSRScratch) bucketFor(key uint64) int {
	return bits.Len64(key ^ s.lastMin)
}

// push inserts a (key, vertex) entry.
//
//hfc:hotpath budget=0
func (s *CSRScratch) push(key uint64, v int32) {
	b := s.bucketFor(key)
	//hfcvet:ignore hotalloc bucket slices retain capacity across runs; steady-state append never grows
	s.buckets[b] = append(s.buckets[b], radixItem{key: key, v: v})
	s.live++
}

// pop removes and returns the minimum live entry under the canonical
// (key, vertex-id) order, dropping stale entries (lazy deletion) as it
// goes. ok is false when the heap is empty.
//
// Monotonicity argument: every returned key is >= every previously
// returned key. Keys pushed after a pop are distances of the form
// fl(d_settled + w) with w >= 0, which is >= d_settled >= lastMin, so no
// entry ever lands below lastMin and the bucket-0 / redistribute
// discipline is sound.
//
//hfc:hotpath budget=0
func (s *CSRScratch) pop() (radixItem, bool) {
	for s.live > 0 {
		// Bucket 0 holds entries with key == lastMin — already minimal.
		// Among equal keys the smallest vertex id pops first (canonical
		// tie-break); entries here are never stale, because a stale entry
		// would imply dist[v] < lastMin, contradicting monotonicity.
		if b0 := s.buckets[0]; len(b0) > 0 {
			mi := 0
			for i := 1; i < len(b0); i++ {
				if b0[i].v < b0[mi].v {
					mi = i
				}
			}
			it := b0[mi]
			b0[mi] = b0[len(b0)-1]
			s.buckets[0] = b0[:len(b0)-1]
			s.live--
			return it, true
		}
		// Find the first non-empty bucket, discard stale entries, and
		// redistribute the rest relative to the new minimum.
		for b := 1; b < len(s.buckets); b++ {
			bk := s.buckets[b]
			if len(bk) == 0 {
				continue
			}
			// First pass: drop stale entries in place.
			kept := bk[:0]
			for _, it := range bk {
				if s.done[it.v] || it.key != math.Float64bits(s.dist[it.v]) {
					s.live--
					continue
				}
				//hfcvet:ignore hotalloc in-place compaction: kept aliases bk's backing and never outgrows it
				kept = append(kept, it)
			}
			s.buckets[b] = kept
			if len(kept) == 0 {
				continue
			}
			// Second pass: find the canonical minimum (key, then id).
			mi := 0
			for i := 1; i < len(kept); i++ {
				if kept[i].key < kept[mi].key ||
					(kept[i].key == kept[mi].key && kept[i].v < kept[mi].v) {
					mi = i
				}
			}
			it := kept[mi]
			s.lastMin = it.key
			kept[mi] = kept[len(kept)-1]
			kept = kept[:len(kept)-1]
			// Redistribute survivors against the new lastMin; each moves
			// to a strictly lower bucket (its highest differing bit with
			// the new minimum is below b), so total work amortizes to
			// O(entries * 64).
			for _, r := range kept {
				nb := s.bucketFor(r.key)
				//hfcvet:ignore hotalloc bucket slices retain capacity across runs; steady-state append never grows
				s.buckets[nb] = append(s.buckets[nb], r)
			}
			s.buckets[b] = bk[:0]
			s.live--
			return it, true
		}
		break
	}
	var zero radixItem
	return zero, false
}

// DijkstraInto computes shortest paths from source into the scratch using
// the monotone radix heap. Distances are bit-identical to the binary-heap
// pointer-graph Dijkstra kept as the test oracle (oracle_test.go): both
// relax with strict <, and with non-negative weights the final dist
// values are independent of settle order (ties cannot improve each other
// because fl(d+w) >= d). Parents are the
// canonical choice under the (dist, vertex-id) settle order with strict-<
// relaxation. The settled inner loop stays allocation-free once the
// scratch has grown to the graph's size.
//
//hfc:hotpath budget=0
func (c *CSR) DijkstraInto(source int, sc *CSRScratch) error {
	if source < 0 || source >= c.n {
		//hfcvet:ignore hotalloc cold validation path, runs at most once per call before the loop
		return fmt.Errorf("graph: source %d out of range [0,%d)", source, c.n)
	}
	sc.reset(c.n)
	sc.dist[source] = 0
	sc.push(0, int32(source))
	for {
		it, ok := sc.pop()
		if !ok {
			break
		}
		v := it.v
		if sc.done[v] {
			continue
		}
		sc.done[v] = true
		dv := sc.dist[v]
		for i := c.off[v]; i < c.off[v+1]; i++ {
			u := c.to[i]
			if nd := dv + c.w[i]; nd < sc.dist[u] {
				sc.dist[u] = nd
				sc.parent[u] = v
				sc.push(math.Float64bits(nd), u)
			}
		}
	}
	return nil
}

// scratchPool lends scratches to the runs that keep only a copy of the
// result (Dijkstra, AllPairsShortestPaths), so a fan-out over sources
// grows one scratch per active worker rather than one per source.
var scratchPool = sync.Pool{New: func() any { return NewCSRScratch() }}

// Dijkstra is the allocating convenience wrapper: it runs DijkstraInto on
// a pooled scratch and copies the result into an independent PathResult.
// Callers on a hot path should hold a CSRScratch and use DijkstraInto.
func (c *CSR) Dijkstra(source int) (*PathResult, error) {
	sc := scratchPool.Get().(*CSRScratch)
	defer scratchPool.Put(sc)
	if err := c.DijkstraInto(source, sc); err != nil {
		return nil, err
	}
	return sc.result(source), nil
}

// result copies the scratch state into an independent PathResult.
func (s *CSRScratch) result(source int) *PathResult {
	dist := append([]float64(nil), s.dist...)
	parent := make([]int, len(s.parent))
	for i, p := range s.parent {
		parent[i] = int(p)
	}
	return &PathResult{Source: source, Dist: dist, Parent: parent}
}
