package geo_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"hfc/internal/coords"
	"hfc/internal/geo"
)

// FuzzGeoIndex drives randomized point sets (optionally snapped to a
// tie-heavy integer lattice) through every index strategy and asserts the
// k-d tree and grid agree with the brute scan on k-NN, nearest, bounded
// nearest, range, and bichromatic closest-pair queries — the exactness
// contract the construction paths rely on.
func FuzzGeoIndex(f *testing.F) {
	f.Add(int64(1), 10, false, 3, 0.5, 0.5)
	f.Add(int64(42), 200, false, 8, 100.0, -50.0)
	f.Add(int64(7), 97, true, 1, 2.0, 2.0)
	f.Add(int64(99), 300, true, 16, 4.0, 0.0)
	f.Add(int64(-3), 65, false, 5, 1e6, 1e6)
	f.Fuzz(func(t *testing.T, seed int64, n int, latticed bool, k int, qx, qy float64) {
		if n < 0 {
			n = -n
		}
		n = n%300 + 2
		if k < 0 {
			k = -k
		}
		k = k%20 + 1
		if math.IsNaN(qx) || math.IsNaN(qy) || qx < -1e12 || qx > 1e12 || qy < -1e12 || qy > 1e12 {
			t.Skip("non-finite or extreme query")
		}
		rng := rand.New(rand.NewSource(seed))
		pts := make([]coords.Point, n)
		for i := range pts {
			if latticed {
				pts[i] = coords.Point{float64(rng.Intn(6)), float64(rng.Intn(6))}
			} else {
				pts[i] = coords.Point{rng.Float64() * 100, rng.Float64() * 100}
			}
		}
		q := coords.Point{qx, qy}
		brute, err := geo.NewIndex(pts, nil, geo.Brute)
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []geo.Strategy{geo.KDTree} {
			idx, err := geo.NewIndex(pts, nil, strat)
			if err != nil {
				t.Fatal(err)
			}
			wantNb, wantOK := brute.Nearest(q, nil)
			gotNb, gotOK := idx.Nearest(q, nil)
			if gotOK != wantOK || gotNb != wantNb {
				t.Fatalf("%v: Nearest=%v,%v want %v,%v", strat, gotNb, gotOK, wantNb, wantOK)
			}
			if wantOK {
				for _, bound := range []float64{wantNb.Dist, wantNb.Dist * 2} {
					got, ok := idx.NearestBounded(q, bound, nil)
					if !ok || got != wantNb {
						t.Fatalf("%v: NearestBounded(%g)=%v,%v want %v", strat, bound, got, ok, wantNb)
					}
				}
			}
			want := brute.KNN(q, k, nil)
			got := idx.KNN(q, k, nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: KNN(%d)=%v want %v", strat, k, got, want)
			}
			r := wantNb.Dist * 1.5
			wantR := brute.RangeSearch(q, r)
			gotR := idx.RangeSearch(q, r)
			if !(len(gotR) == 0 && len(wantR) == 0) && !reflect.DeepEqual(gotR, wantR) {
				t.Fatalf("%v: RangeSearch(%g)=%v want %v", strat, r, gotR, wantR)
			}
		}
		// Bichromatic closest pair: split members in half.
		var a, b []int
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				a = append(a, i)
			} else {
				b = append(b, i)
			}
		}
		want, err := geo.ClosestPair(pts, a, b, geo.Brute)
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []geo.Strategy{geo.KDTree} {
			got, err := geo.ClosestPair(pts, a, b, strat)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%v: ClosestPair=%v want %v", strat, got, want)
			}
		}
	})
}
