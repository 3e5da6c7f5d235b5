package geo

import (
	"errors"
	"math"

	"hfc/internal/coords"
)

// Pair is a bichromatic closest pair: A is a member of the iterated side,
// B a member of the indexed side, Dist their computed distance.
type Pair struct {
	A, B int
	Dist float64
}

// pairLess reports whether candidate (d1, a1, b1) precedes (d2, a2, b2) in
// the canonical pair order — the exact tie rule the §3.3 brute-force
// election uses.
func pairLess(d1 float64, a1, b1 int, d2 float64, a2, b2 int) bool {
	if d1 != d2 {
		return d1 < d2
	}
	if a1 != a2 {
		return a1 < a2
	}
	return b1 < b2
}

// ClosestPairIndexed returns the pair minimizing (Dist, A, B) between the
// listed A members (minus skipA) and the indexed B side (minus skipB). The
// incumbent distance is threaded into every nearest-neighbour query as its
// bound, so once a close pair is found the remaining queries prune almost
// everything. ok is false when either side is effectively empty.
func ClosestPairIndexed(pts []coords.Point, membersA []int, b Index, skipA, skipB func(int) bool) (Pair, bool) {
	best := Pair{A: -1, B: -1, Dist: math.Inf(1)}
	for _, a := range membersA {
		if skipA != nil && skipA(a) {
			continue
		}
		nb, ok := b.NearestBounded(pts[a], best.Dist, skipB)
		if !ok {
			continue
		}
		if pairLess(nb.Dist, a, nb.Idx, best.Dist, best.A, best.B) {
			best = Pair{A: a, B: nb.Idx, Dist: nb.Dist}
		}
	}
	return best, best.A >= 0
}

// ClosestPair builds an index over membersB with the given strategy and
// returns the bichromatic closest pair against membersA. It is the
// one-shot convenience form of ClosestPairIndexed.
func ClosestPair(pts []coords.Point, membersA, membersB []int, strat Strategy) (Pair, error) {
	if len(membersA) == 0 || len(membersB) == 0 {
		return Pair{}, errors.New("geo: closest pair over an empty side")
	}
	idx, err := NewIndex(pts, membersB, strat)
	if err != nil {
		return Pair{}, err
	}
	p, ok := ClosestPairIndexed(pts, membersA, idx, nil, nil)
	if !ok {
		return Pair{}, errors.New("geo: closest pair over an empty side")
	}
	return p, nil
}
