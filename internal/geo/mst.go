package geo

import (
	"errors"
	"fmt"
	"math"

	"hfc/internal/coords"
	"hfc/internal/graph"
)

// mstBruteCutover is the point count below which MST falls back to the
// dense Prim scan regardless of strategy: at small n the O(n²) scan beats
// tree construction.
const mstBruteCutover = 64

// MST computes the Euclidean minimum spanning tree of pts in canonical
// form (each edge oriented From < To, edges sorted by (Weight, From, To)).
//
// Edge weights carry exact distance ties, so the MST is made unique by
// ordering edges by the tuple (weight, min endpoint, max endpoint) — the
// same total order graph.EuclideanMST uses. Under a total order the MST is
// unique, so the Borůvka rounds the indexed strategies run return exactly
// the edge set of the dense Prim scan; the property tests assert the
// DeepEqual.
//
// Brute selects the dense Prim scan; every other strategy runs Borůvka
// rounds over a component-annotated k-d tree. Points must be finite and
// share one dimension.
func MST(pts []coords.Point, strat Strategy) ([]graph.Edge, error) {
	n := len(pts)
	if n == 0 {
		return nil, errors.New("geo: mst of empty point set")
	}
	dim := len(pts[0])
	if dim == 0 {
		return nil, errors.New("geo: zero-dimensional points")
	}
	for i, p := range pts {
		if len(p) != dim {
			return nil, fmt.Errorf("geo: point %d has dimension %d, want %d", i, len(p), dim)
		}
		if !finitePoint(p) {
			return nil, fmt.Errorf("geo: point %d has a non-finite coordinate", i)
		}
	}
	if strat == Brute || n < mstBruteCutover {
		mst, err := graph.EuclideanMST(n, func(i, j int) float64 { return coords.Dist(pts[i], pts[j]) })
		if err != nil {
			return nil, err
		}
		graph.CanonicalizeEdges(mst)
		return mst, nil
	}

	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	t := newKDTree(pts, members, dim)
	uf := graph.NewUnionFind(n)
	edges := make([]graph.Edge, 0, n-1)
	compOf := make([]int, n)
	nodeComp := make([]int, len(t.nodes))
	// Per-round candidate edge of each component, indexed by its root.
	bestW := make([]float64, n)
	bestLo := make([]int, n)
	bestHi := make([]int, n)
	roots := make([]int, 0, n)
	// Cross-round cache of each node's exact nearest foreign neighbour.
	// The foreign set of a node only shrinks as components merge, so a
	// cached exact minimum stays the exact canonical minimum as long as the
	// neighbour remains foreign — nodes deep inside a component skip their
	// queries for many consecutive rounds.
	cand := make([]Neighbor, n)
	candOK := make([]bool, n)
	// buddy[i] is a spatially close member (its neighbour in the tree's
	// leaf order). A query bounded by d(i, buddy) is still exact whenever
	// the buddy is foreign — the buddy itself is a candidate, so the true
	// minimum is within the bound — and it turns the unbounded first-round
	// queries into tightly pruned ones.
	buddy := make([]int, n)
	for p, i := range t.idxs {
		if p+1 < n {
			buddy[i] = t.idxs[p+1]
		} else {
			buddy[i] = t.idxs[p-1]
		}
	}

	for uf.Sets() > 1 {
		for i := range compOf {
			compOf[i] = uf.Find(i)
		}
		t.annotate(compOf, nodeComp)
		roots = roots[:0]
		// Each node supplies its nearest foreign point (cached or freshly
		// queried); candidates merge into the owning component's best
		// outgoing edge under the canonical (weight, lo, hi) order. The
		// component incumbent's weight bounds each query, so most
		// late-round queries prune to nothing.
		for i := range bestLo {
			bestLo[i] = -1
		}
		for i := 0; i < n; i++ {
			r := compOf[i]
			var nb Neighbor
			if candOK[i] && compOf[cand[i].Idx] != r {
				nb = cand[i]
			} else {
				bound := math.Inf(1)
				if bestLo[r] >= 0 {
					bound = bestW[r]
				}
				if b := buddy[i]; compOf[b] != r {
					if d := coords.Dist(pts[i], pts[b]); d < bound {
						bound = d
					}
				}
				got, ok := t.nearestForeign(pts[i], r, bound, compOf, nodeComp)
				// Only results within the bound are exact minima
				// (NearestBounded contract) — they are safe to cache and
				// the only ones that can win the merge below.
				if !ok || got.Dist > bound {
					candOK[i] = false
					continue
				}
				cand[i], candOK[i] = got, true
				nb = got
			}
			lo, hi := i, nb.Idx
			if lo > hi {
				lo, hi = hi, lo
			}
			if bestLo[r] < 0 {
				roots = append(roots, r)
				bestW[r], bestLo[r], bestHi[r] = nb.Dist, lo, hi
			} else if edgeTupleLess(nb.Dist, lo, hi, bestW[r], bestLo[r], bestHi[r]) {
				bestW[r], bestLo[r], bestHi[r] = nb.Dist, lo, hi
			}
		}
		merged := false
		for _, r := range roots {
			if bestLo[r] < 0 {
				continue
			}
			if uf.Union(bestLo[r], bestHi[r]) {
				edges = append(edges, graph.Edge{From: bestLo[r], To: bestHi[r], Weight: bestW[r]})
				merged = true
			}
		}
		if !merged {
			return nil, errors.New("geo: boruvka made no progress")
		}
	}
	graph.CanonicalizeEdges(edges)
	return edges, nil
}

// edgeTupleLess is the canonical edge order on (weight, lo, hi) tuples
// with lo < hi.
func edgeTupleLess(w1 float64, lo1, hi1 int, w2 float64, lo2, hi2 int) bool {
	if w1 != w2 {
		return w1 < w2
	}
	if lo1 != lo2 {
		return lo1 < lo2
	}
	return hi1 < hi2
}
