package geo_test

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"hfc/internal/coords"
	"hfc/internal/geo"
)

// refNearest is the test-local reference scan, written independently of the
// package's bruteIndex so the reference itself is under test too.
func refNearest(pts []coords.Point, members []int, q coords.Point, skip func(int) bool) (geo.Neighbor, bool) {
	best := geo.Neighbor{Idx: -1, Dist: math.Inf(1)}
	for _, m := range members {
		if skip != nil && skip(m) {
			continue
		}
		d := coords.Dist(q, pts[m])
		if d < best.Dist || (d == best.Dist && m < best.Idx) {
			best = geo.Neighbor{Idx: m, Dist: d}
		}
	}
	return best, best.Idx >= 0
}

func refKNN(pts []coords.Point, members []int, q coords.Point, k int, skip func(int) bool) []geo.Neighbor {
	var all []geo.Neighbor
	for _, m := range members {
		if skip != nil && skip(m) {
			continue
		}
		all = append(all, geo.Neighbor{Idx: m, Dist: coords.Dist(q, pts[m])})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].Idx < all[j].Idx
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func refRange(pts []coords.Point, members []int, q coords.Point, r float64) []int {
	var out []int
	for _, m := range members {
		if coords.Dist(q, pts[m]) <= r {
			out = append(out, m)
		}
	}
	sort.Ints(out)
	return out
}

func refClosestPair(pts []coords.Point, membersA, membersB []int) (geo.Pair, bool) {
	best := geo.Pair{A: -1, B: -1, Dist: math.Inf(1)}
	found := false
	for _, a := range membersA {
		for _, b := range membersB {
			d := coords.Dist(pts[a], pts[b])
			better := d < best.Dist || (d == best.Dist && (a < best.A || (a == best.A && b < best.B)))
			if !found || better {
				best = geo.Pair{A: a, B: b, Dist: d}
				found = true
			}
		}
	}
	return best, found
}

// pointSets generates the adversarial families the engine must stay exact
// on: uniform noise, tight clustered blobs, an integer lattice with heavy
// exact distance ties, duplicated points, and a degenerate collinear set.
func pointSets(rng *rand.Rand, n, dim int) map[string][]coords.Point {
	uniform := make([]coords.Point, n)
	for i := range uniform {
		p := make(coords.Point, dim)
		for a := range p {
			p[a] = rng.Float64() * 1000
		}
		uniform[i] = p
	}
	blobs := make([]coords.Point, n)
	for i := range blobs {
		p := make(coords.Point, dim)
		c := float64(i % 4)
		for a := range p {
			p[a] = c*300 + rng.NormFloat64()*5
		}
		blobs[i] = p
	}
	lattice := make([]coords.Point, n)
	for i := range lattice {
		p := make(coords.Point, dim)
		for a := range p {
			p[a] = float64(rng.Intn(5))
		}
		lattice[i] = p
	}
	collinear := make([]coords.Point, n)
	span := n/2 + 1
	for i := range collinear {
		p := make(coords.Point, dim)
		p[0] = float64(rng.Intn(span))
		collinear[i] = p
	}
	return map[string][]coords.Point{
		"uniform":   uniform,
		"blobs":     blobs,
		"lattice":   lattice,
		"collinear": collinear,
	}
}

var allStrategies = []geo.Strategy{geo.Brute, geo.KDTree}

func TestIndexMatchesReference(t *testing.T) {
	for _, n := range []int{1, 7, 60, 300} {
		rng := rand.New(rand.NewSource(int64(n)))
		for name, pts := range pointSets(rng, n, 2) {
			members := make([]int, 0, n)
			for i := 0; i < n; i++ {
				if n < 10 || i%3 != 0 { // exercise proper subsets too
					members = append(members, i)
				}
			}
			queries := make([]coords.Point, 12)
			for i := range queries {
				queries[i] = coords.Point{rng.Float64()*1200 - 100, rng.Float64()*1200 - 100}
			}
			queries = append(queries, pts[0]) // exact-hit query
			skips := map[string]func(int) bool{
				"none": nil,
				"even": func(j int) bool { return j%2 == 0 },
			}
			for _, strat := range allStrategies {
				idx, err := geo.NewIndex(pts, members, strat)
				if err != nil {
					t.Fatalf("%s/%v: NewIndex: %v", name, strat, err)
				}
				if idx.Size() != len(members) {
					t.Fatalf("%s/%v: Size=%d want %d", name, strat, idx.Size(), len(members))
				}
				for qi, q := range queries {
					for skipName, skip := range skips {
						wantNb, wantOK := refNearest(pts, members, q, skip)
						gotNb, gotOK := idx.Nearest(q, skip)
						if gotOK != wantOK || (wantOK && gotNb != wantNb) {
							t.Fatalf("%s/%v q%d skip=%s: Nearest=%v,%v want %v,%v",
								name, strat, qi, skipName, gotNb, gotOK, wantNb, wantOK)
						}
						for _, k := range []int{1, 3, 8, len(members) + 5} {
							want := refKNN(pts, members, q, k, skip)
							got := idx.KNN(q, k, skip)
							if len(got) == 0 && len(want) == 0 {
								continue
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s/%v q%d skip=%s k=%d: KNN=%v want %v",
									name, strat, qi, skipName, k, got, want)
							}
						}
						// NearestBounded contract: exact whenever the true
						// minimum is within the bound.
						for _, scale := range []float64{0.5, 1.0, 2.0} {
							if !wantOK {
								continue
							}
							bound := wantNb.Dist * scale
							got, ok := idx.NearestBounded(q, bound, skip)
							if wantNb.Dist <= bound && (!ok || got != wantNb) {
								t.Fatalf("%s/%v q%d skip=%s bound=%g: NearestBounded=%v,%v want %v",
									name, strat, qi, skipName, bound, got, ok, wantNb)
							}
						}
					}
					for _, r := range []float64{0, 3, 50, 400, 2000} {
						want := refRange(pts, members, q, r)
						got := idx.RangeSearch(q, r)
						if len(got) == 0 && len(want) == 0 {
							continue
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s/%v q%d r=%g: RangeSearch=%v want %v",
								name, strat, qi, r, got, want)
						}
					}
				}
			}
		}
	}
}

func TestClosestPairMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{4, 40, 200} {
		for name, pts := range pointSets(rng, n, 2) {
			var membersA, membersB []int
			for i := 0; i < n; i++ {
				if i%2 == 0 {
					membersA = append(membersA, i)
				} else {
					membersB = append(membersB, i)
				}
			}
			want, _ := refClosestPair(pts, membersA, membersB)
			for _, strat := range allStrategies {
				got, err := geo.ClosestPair(pts, membersA, membersB, strat)
				if err != nil {
					t.Fatalf("%s/%v: ClosestPair: %v", name, strat, err)
				}
				if got != want {
					t.Fatalf("%s/%v: ClosestPair=%v want %v", name, strat, got, want)
				}
			}
			// The skip closures drive the backup-border elections.
			idxB, err := geo.NewIndex(pts, membersB, geo.KDTree)
			if err != nil {
				t.Fatal(err)
			}
			skip := func(j int) bool { return j == want.A || j == want.B }
			var filteredA []int
			for _, a := range membersA {
				if !skip(a) {
					filteredA = append(filteredA, a)
				}
			}
			var filteredB []int
			for _, b := range membersB {
				if !skip(b) {
					filteredB = append(filteredB, b)
				}
			}
			want2, ok2 := refClosestPair(pts, filteredA, filteredB)
			got2, gotOK2 := geo.ClosestPairIndexed(pts, membersA, idxB, skip, skip)
			if gotOK2 != ok2 || (ok2 && got2 != want2) {
				t.Fatalf("%s: skipped ClosestPairIndexed=%v,%v want %v,%v", name, got2, gotOK2, want2, ok2)
			}
		}
	}
}

func TestMSTStrategiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// n above the internal Borůvka cutover so the indexed path engages.
	for _, n := range []int{65, 120, 300} {
		for name, pts := range pointSets(rng, n, 2) {
			want, err := geo.MST(pts, geo.Brute)
			if err != nil {
				t.Fatalf("%s: brute MST: %v", name, err)
			}
			got, err := geo.MST(pts, geo.KDTree)
			if err != nil {
				t.Fatalf("%s: kd MST: %v", name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s n=%d: kd MST differs from brute\n got %v\nwant %v", name, n, got, want)
			}
			if len(got) != n-1 {
				t.Fatalf("%s: MST has %d edges, want %d", name, len(got), n-1)
			}
		}
	}
}

func TestNewIndexValidation(t *testing.T) {
	pts := []coords.Point{{0, 0}, {1, 1}, {2, 2}}
	cases := []struct {
		name    string
		pts     []coords.Point
		members []int
	}{
		{"empty points", nil, nil},
		{"empty members", pts, []int{}},
		{"member out of range", pts, []int{0, 3}},
		{"negative member", pts, []int{-1, 0}},
		{"duplicate member", pts, []int{1, 1}},
		{"dimension mismatch", []coords.Point{{0, 0}, {1}}, nil},
		{"non-finite", []coords.Point{{0, 0}, {math.NaN(), 1}}, nil},
		{"zero-dimensional", []coords.Point{{}}, nil},
	}
	for _, tc := range cases {
		for _, strat := range allStrategies {
			if _, err := geo.NewIndex(tc.pts, tc.members, strat); err == nil {
				t.Errorf("%s/%v: expected error", tc.name, strat)
			}
		}
	}
	if !geo.Finite([]coords.Point{{1, 2}, {3, 4}}) {
		t.Error("Finite rejected finite points")
	}
	if geo.Finite([]coords.Point{{1, math.Inf(1)}}) {
		t.Error("Finite accepted +Inf")
	}
}

func TestStrategyString(t *testing.T) {
	for s, want := range map[geo.Strategy]string{
		geo.Auto: "auto", geo.Brute: "brute", geo.KDTree: "kdtree",
	} {
		if got := s.String(); got != want {
			t.Errorf("Strategy(%d).String()=%q want %q", int(s), got, want)
		}
	}
}
