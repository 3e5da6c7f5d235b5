// Package geo is the spatial-index geometric engine behind the
// sub-quadratic construction paths: a k-d tree over embedded GNP points
// (internal/coords) answering nearest-neighbour, k-NN, range, and
// bichromatic closest-pair queries, plus a Borůvka Euclidean-MST builder for
// Zahn's clustering (§3.2) and the §3.3 border elections.
//
// Every query is exact, not approximate: candidate distances are computed
// with coords.Dist — the same call the brute-force scans make — and
// subtree pruning keeps a relative slack (pruneSlack) so no candidate that
// could win under floating-point arithmetic is ever skipped. Exact distance
// ties break toward the lowest member index (and for pairs and edges, the
// lexicographically smallest index tuple), the same canonical order the
// brute-force scans use, so an indexed result is bit-identical to the
// corresponding O(n·m) scan. The equivalence is asserted by property tests
// and FuzzGeoIndex.
package geo

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"hfc/internal/coords"
)

// Strategy selects the spatial-index implementation.
type Strategy int

const (
	// Auto picks the k-d tree for large member sets and the brute scan for
	// tiny ones (below autoBruteCutover, where tree traversal overhead
	// exceeds the scan).
	Auto Strategy = iota
	// Brute is the plain linear scan — the reference every other strategy
	// must match bit for bit.
	Brute
	// KDTree is a bucketed k-d tree with bounding-box pruning.
	KDTree
)

// String returns a short label for the strategy.
func (s Strategy) String() string {
	switch s {
	case Auto:
		return "auto"
	case Brute:
		return "brute"
	case KDTree:
		return "kdtree"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// autoBruteCutover is the member count below which Auto selects the brute
// scan: tree construction plus traversal only pays off past a few dozen
// points.
const autoBruteCutover = 48

// pruneSlack is the relative slack applied to every squared pruning bound.
// Box bounds and candidate distances are computed with different
// floating-point operation orders, so a subtree is only discarded when its
// box is further than bound*(1+pruneSlack) — a margin many orders of
// magnitude above the few-ulp rounding noise, guaranteeing no candidate
// that could tie or win is pruned while still rejecting essentially every
// losing subtree.
const pruneSlack = 1e-9

// Neighbor is one query answer: a member index and its computed distance.
type Neighbor struct {
	Idx  int
	Dist float64
}

// Index answers exact proximity queries over a fixed member subset of a
// point set. Implementations are immutable after construction and safe for
// concurrent readers. Member indices are indices into the original point
// slice, not positions within the subset.
type Index interface {
	// Size returns the number of indexed members.
	Size() int
	// Nearest returns the member minimizing (Dist, Idx) among members for
	// which skip (when non-nil) returns false. ok is false when every
	// member is skipped.
	Nearest(q coords.Point, skip func(int) bool) (Neighbor, bool)
	// NearestBounded is Nearest restricted by an upper bound: whenever the
	// true minimum has Dist <= bound, exactly that minimum is returned.
	// When every candidate lies beyond the bound the result may be absent
	// or an arbitrary candidate — callers must treat it as "no
	// improvement". The bound lets closest-pair loops share their
	// incumbent across queries and skip almost all work.
	NearestBounded(q coords.Point, bound float64, skip func(int) bool) (Neighbor, bool)
	// KNN returns the k members minimizing (Dist, Idx), ascending in that
	// order (fewer when the index has fewer eligible members).
	KNN(q coords.Point, k int, skip func(int) bool) []Neighbor
	// RangeSearch returns the member indices within distance r of q
	// (inclusive), ascending.
	RangeSearch(q coords.Point, r float64) []int
}

// NewIndex builds an index over pts restricted to the given members (nil
// means every point). The member list is copied; pts is referenced, not
// copied, and must not be mutated while the index is in use. All member
// points must share one dimension and be finite.
func NewIndex(pts []coords.Point, members []int, strat Strategy) (Index, error) {
	if len(pts) == 0 {
		return nil, errors.New("geo: empty point set")
	}
	if members == nil {
		members = make([]int, len(pts))
		for i := range members {
			members[i] = i
		}
	} else {
		members = append([]int(nil), members...)
		sort.Ints(members)
	}
	if len(members) == 0 {
		return nil, errors.New("geo: empty member set")
	}
	for i, m := range members {
		if m < 0 || m >= len(pts) {
			return nil, fmt.Errorf("geo: member %d out of range [0,%d)", m, len(pts))
		}
		if i > 0 && members[i-1] == m {
			return nil, fmt.Errorf("geo: duplicate member %d", m)
		}
	}
	dim := len(pts[members[0]])
	if dim == 0 {
		return nil, errors.New("geo: zero-dimensional points")
	}
	for _, m := range members {
		if len(pts[m]) != dim {
			return nil, fmt.Errorf("geo: point %d has dimension %d, want %d", m, len(pts[m]), dim)
		}
		if !finitePoint(pts[m]) {
			return nil, fmt.Errorf("geo: point %d has a non-finite coordinate", m)
		}
	}
	switch strat {
	case Brute:
		return &bruteIndex{pts: pts, members: members}, nil
	case KDTree:
		return newKDTree(pts, members, dim), nil
	case Auto:
		if len(members) < autoBruteCutover {
			return &bruteIndex{pts: pts, members: members}, nil
		}
		return newKDTree(pts, members, dim), nil
	default:
		return nil, fmt.Errorf("geo: unknown strategy %d", int(strat))
	}
}

// Finite reports whether every coordinate of every point is finite — the
// precondition for enabling an indexed strategy (NaN breaks any ordering
// argument, so callers fall back to the brute scans on non-finite input).
func Finite(pts []coords.Point) bool {
	for _, p := range pts {
		if !finitePoint(p) {
			return false
		}
	}
	return true
}

func finitePoint(p coords.Point) bool {
	for _, x := range p {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// neighborLess reports whether candidate (d1, i1) precedes (d2, i2) in the
// canonical result order.
func neighborLess(d1 float64, i1 int, d2 float64, i2 int) bool {
	//hfcvet:ignore floatdist exact distance ties fall back to member index so every engine agrees bit for bit
	if d1 != d2 {
		return d1 < d2
	}
	return i1 < i2
}

// sqDist is the squared Euclidean distance — the leaf-scan prefilter.
// Candidates are only rejected on sqDist when they exceed the squared
// limit by more than pruneSlack; survivors are re-measured with
// coords.Dist, so every comparison that decides a result still happens on
// the exact same values the brute scans use.
func sqDist(a, b coords.Point) float64 {
	s := 0.0
	for i, x := range a {
		d := x - b[i]
		s += d * d
	}
	return s
}

// boxBoundSq returns a lower bound on the squared distance from q to the
// axis-aligned box [min, max].
func boxBoundSq(q coords.Point, min, max []float64) float64 {
	sum := 0.0
	for a := range q {
		if d := min[a] - q[a]; d > 0 {
			sum += d * d
		} else if d := q[a] - max[a]; d > 0 {
			sum += d * d
		}
	}
	return sum
}

// sqBound converts a distance bound to the squared domain (+Inf maps to
// +Inf).
func sqBound(bound float64) float64 {
	if math.IsInf(bound, 1) {
		return bound
	}
	return bound * bound
}

// knnAcc accumulates the k canonical-smallest neighbours, kept sorted by
// (Dist, Idx).
type knnAcc struct {
	k   int
	out []Neighbor
}

// consider offers a candidate to the accumulator.
func (acc *knnAcc) consider(j int, d float64) {
	if len(acc.out) == acc.k {
		worst := acc.out[len(acc.out)-1]
		if !neighborLess(d, j, worst.Dist, worst.Idx) {
			return
		}
		acc.out = acc.out[:len(acc.out)-1]
	}
	pos := sort.Search(len(acc.out), func(i int) bool {
		return neighborLess(d, j, acc.out[i].Dist, acc.out[i].Idx)
	})
	acc.out = append(acc.out, Neighbor{})
	copy(acc.out[pos+1:], acc.out[pos:])
	acc.out[pos] = Neighbor{Idx: j, Dist: d}
}

// limitSq returns the squared pruning limit: the k-th best distance once
// the accumulator is full, +Inf before that.
func (acc *knnAcc) limitSq() float64 {
	if len(acc.out) < acc.k {
		return math.Inf(1)
	}
	return sqBound(acc.out[len(acc.out)-1].Dist)
}
