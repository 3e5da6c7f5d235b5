package geo

import (
	"math"
	"sort"

	"hfc/internal/coords"
)

// kdLeafSize is the bucket size at which splitting stops; buckets this
// small are cheaper to scan than to traverse.
const kdLeafSize = 32

// kdNode is one node of the bucketed k-d tree. Every node (internal or
// leaf) stores its bounding box for pruning; leaves reference a range of
// the member permutation, internal nodes reference their children.
type kdNode struct {
	axis        int // split axis; -1 marks a leaf
	left, right int // child node indices (internal nodes)
	start, end  int // member range in idxs (leaves)
	min, max    []float64
}

// kdTree is a bucketed k-d tree over a member subset of a point slice.
// Immutable after construction; queries share no mutable state, so
// concurrent readers are safe.
type kdTree struct {
	pts   []coords.Point
	dim   int
	idxs  []int // member indices, permuted so every leaf owns a contiguous range
	nodes []kdNode
}

func newKDTree(pts []coords.Point, members []int, dim int) *kdTree {
	t := &kdTree{pts: pts, dim: dim, idxs: members}
	t.nodes = make([]kdNode, 0, 2*(len(members)/kdLeafSize+1))
	t.build(0, len(members))
	return t
}

// build creates the subtree over idxs[start:end) and returns its node
// index. Splits are on the widest bounding-box axis at the member median,
// ordered by (coordinate, index) so construction is deterministic.
func (t *kdTree) build(start, end int) int {
	lo := make([]float64, t.dim)
	hi := make([]float64, t.dim)
	copy(lo, t.pts[t.idxs[start]])
	copy(hi, t.pts[t.idxs[start]])
	for _, j := range t.idxs[start+1 : end] {
		p := t.pts[j]
		for a := 0; a < t.dim; a++ {
			if p[a] < lo[a] {
				lo[a] = p[a]
			}
			if p[a] > hi[a] {
				hi[a] = p[a]
			}
		}
	}
	id := len(t.nodes)
	t.nodes = append(t.nodes, kdNode{axis: -1, start: start, end: end, min: lo, max: hi})
	if end-start <= kdLeafSize {
		return id
	}
	axis, spread := 0, hi[0]-lo[0]
	for a := 1; a < t.dim; a++ {
		if s := hi[a] - lo[a]; s > spread {
			axis, spread = a, s
		}
	}
	if spread == 0 {
		return id // all members coincide; keep one flat bucket
	}
	seg := t.idxs[start:end]
	sort.Slice(seg, func(i, j int) bool {
		if t.pts[seg[i]][axis] != t.pts[seg[j]][axis] {
			return t.pts[seg[i]][axis] < t.pts[seg[j]][axis]
		}
		return seg[i] < seg[j]
	})
	mid := (start + end) / 2
	left := t.build(start, mid)
	right := t.build(mid, end)
	nd := &t.nodes[id]
	nd.axis, nd.left, nd.right = axis, left, right
	return id
}

func (t *kdTree) Size() int { return len(t.idxs) }

func (t *kdTree) Nearest(q coords.Point, skip func(int) bool) (Neighbor, bool) {
	return t.NearestBounded(q, math.Inf(1), skip)
}

func (t *kdTree) NearestBounded(q coords.Point, bound float64, skip func(int) bool) (Neighbor, bool) {
	best := Neighbor{Idx: -1, Dist: math.Inf(1)}
	t.nearest(0, q, sqBound(bound), skip, &best)
	return best, best.Idx >= 0
}

// nearest descends the tree, nearer child first, pruning subtrees whose
// box lies beyond min(capSq, best²)·(1+pruneSlack).
func (t *kdTree) nearest(node int, q coords.Point, capSq float64, skip func(int) bool, best *Neighbor) {
	nd := &t.nodes[node]
	limit := capSq
	if bsq := sqBound(best.Dist); bsq < limit {
		limit = bsq
	}
	if boxBoundSq(q, nd.min, nd.max) > limit*(1+pruneSlack) {
		return
	}
	if nd.axis < 0 {
		for _, j := range t.idxs[nd.start:nd.end] {
			if skip != nil && skip(j) {
				continue
			}
			if sqDist(q, t.pts[j]) > limit*(1+pruneSlack) {
				continue
			}
			if d := coords.Dist(q, t.pts[j]); neighborLess(d, j, best.Dist, best.Idx) {
				*best = Neighbor{Idx: j, Dist: d}
				if bsq := sqBound(best.Dist); bsq < limit {
					limit = bsq
				}
			}
		}
		return
	}
	first, second := nd.left, nd.right
	if q[nd.axis] > t.nodes[nd.right].min[nd.axis] {
		first, second = second, first
	}
	t.nearest(first, q, capSq, skip, best)
	t.nearest(second, q, capSq, skip, best)
}

func (t *kdTree) KNN(q coords.Point, k int, skip func(int) bool) []Neighbor {
	if k <= 0 {
		return nil
	}
	acc := &knnAcc{k: k}
	t.knn(0, q, skip, acc)
	return acc.out
}

func (t *kdTree) knn(node int, q coords.Point, skip func(int) bool, acc *knnAcc) {
	nd := &t.nodes[node]
	if boxBoundSq(q, nd.min, nd.max) > acc.limitSq()*(1+pruneSlack) {
		return
	}
	if nd.axis < 0 {
		for _, j := range t.idxs[nd.start:nd.end] {
			if skip != nil && skip(j) {
				continue
			}
			if sqDist(q, t.pts[j]) > acc.limitSq()*(1+pruneSlack) {
				continue
			}
			acc.consider(j, coords.Dist(q, t.pts[j]))
		}
		return
	}
	first, second := nd.left, nd.right
	if q[nd.axis] > t.nodes[nd.right].min[nd.axis] {
		first, second = second, first
	}
	t.knn(first, q, skip, acc)
	t.knn(second, q, skip, acc)
}

func (t *kdTree) RangeSearch(q coords.Point, r float64) []int {
	if r < 0 {
		return nil
	}
	var out []int
	t.inRange(0, q, r, sqBound(r), &out)
	sort.Ints(out)
	return out
}

func (t *kdTree) inRange(node int, q coords.Point, r, rSq float64, out *[]int) {
	nd := &t.nodes[node]
	if boxBoundSq(q, nd.min, nd.max) > rSq*(1+pruneSlack) {
		return
	}
	if nd.axis < 0 {
		for _, j := range t.idxs[nd.start:nd.end] {
			if coords.Dist(q, t.pts[j]) <= r {
				*out = append(*out, j)
			}
		}
		return
	}
	t.inRange(nd.left, q, r, rSq, out)
	t.inRange(nd.right, q, r, rSq, out)
}

// annotate tags every node with the single Borůvka component all its
// members belong to (or -1 when mixed), writing into nodeComp, which must
// have len(t.nodes) entries. Pure-component subtrees are what lets
// nearestForeign skip same-component regions wholesale.
func (t *kdTree) annotate(compOf []int, nodeComp []int) {
	// Nodes are allocated parent-first, so walking the slice backwards
	// visits children before parents.
	for id := len(t.nodes) - 1; id >= 0; id-- {
		nd := &t.nodes[id]
		if nd.axis < 0 {
			c := compOf[t.idxs[nd.start]]
			for _, j := range t.idxs[nd.start+1 : nd.end] {
				if compOf[j] != c {
					c = -1
					break
				}
			}
			nodeComp[id] = c
			continue
		}
		if l, r := nodeComp[nd.left], nodeComp[nd.right]; l == r {
			nodeComp[id] = l
		} else {
			nodeComp[id] = -1
		}
	}
}

// nearestForeign returns the member minimizing (Dist, Idx) among members
// outside component qComp, with the NearestBounded bound contract. It is
// the Borůvka round query: subtrees annotated with qComp are skipped
// without descending.
func (t *kdTree) nearestForeign(q coords.Point, qComp int, bound float64, compOf, nodeComp []int) (Neighbor, bool) {
	best := Neighbor{Idx: -1, Dist: math.Inf(1)}
	t.foreign(0, q, qComp, sqBound(bound), compOf, nodeComp, &best)
	return best, best.Idx >= 0
}

func (t *kdTree) foreign(node int, q coords.Point, qComp int, capSq float64, compOf, nodeComp []int, best *Neighbor) {
	if nodeComp[node] == qComp {
		return
	}
	nd := &t.nodes[node]
	limit := capSq
	if bsq := sqBound(best.Dist); bsq < limit {
		limit = bsq
	}
	if boxBoundSq(q, nd.min, nd.max) > limit*(1+pruneSlack) {
		return
	}
	if nd.axis < 0 {
		for _, j := range t.idxs[nd.start:nd.end] {
			if compOf[j] == qComp {
				continue
			}
			if sqDist(q, t.pts[j]) > limit*(1+pruneSlack) {
				continue
			}
			if d := coords.Dist(q, t.pts[j]); neighborLess(d, j, best.Dist, best.Idx) {
				*best = Neighbor{Idx: j, Dist: d}
				if bsq := sqBound(best.Dist); bsq < limit {
					limit = bsq
				}
			}
		}
		return
	}
	first, second := nd.left, nd.right
	if q[nd.axis] > t.nodes[nd.right].min[nd.axis] {
		first, second = second, first
	}
	t.foreign(first, q, qComp, capSq, compOf, nodeComp, best)
	t.foreign(second, q, qComp, capSq, compOf, nodeComp, best)
}
