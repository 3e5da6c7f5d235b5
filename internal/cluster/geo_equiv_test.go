package cluster

import (
	"math/rand"
	"reflect"
	"testing"

	"hfc/internal/coords"
	"hfc/internal/geo"
)

// equivPoints draws one of several adversarial families: Gaussian blobs,
// uniform noise, and a coarse integer lattice whose duplicated coordinates
// force exact distance ties everywhere — the case the canonical
// (weight, lo, hi) edge order exists for.
func equivPoints(rng *rand.Rand, seed int64, n int) []coords.Point {
	pts := make([]coords.Point, n)
	switch seed % 3 {
	case 0:
		for i := range pts {
			c := float64(i % 4)
			pts[i] = coords.Point{c*300 + rng.NormFloat64()*10, c*300 + rng.NormFloat64()*10}
		}
	case 1:
		for i := range pts {
			pts[i] = coords.Point{rng.Float64() * 500, rng.Float64() * 500}
		}
	default:
		for i := range pts {
			pts[i] = coords.Point{float64(rng.Intn(8)) * 10, float64(rng.Intn(8)) * 10}
		}
	}
	return pts
}

// TestClusterGeoMatchesBrute is the tentpole equivalence property: across
// 200 seeded instances, clustering through the spatial-index engine (k-d
// tree and grid) produces results deeply equal to the brute-force
// complete-graph path — same MST edges, removed edges, assignments, and
// merged small clusters.
func TestClusterGeoMatchesBrute(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 80 + rng.Intn(200)
		pts := equivPoints(rng, seed, n)
		for _, minSize := range []int{1, 4} {
			base := DefaultConfig()
			base.MinClusterSize = minSize
			brute := base
			brute.Index = geo.Brute
			want, err := Cluster(n, pointDist(pts), brute)
			if err != nil {
				t.Fatalf("seed %d: brute Cluster: %v", seed, err)
			}
			for _, strat := range []geo.Strategy{geo.KDTree} {
				cfg := base
				cfg.Points = pts
				cfg.Index = strat
				got, err := Cluster(n, pointDist(pts), cfg)
				if err != nil {
					t.Fatalf("seed %d/%v: geo Cluster: %v", seed, strat, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d/%v minSize=%d n=%d: geo clustering differs from brute\n got: %+v\nwant: %+v",
						seed, strat, minSize, n, got, want)
				}
			}
		}
	}
}

// TestClusterAutoIndexThreshold pins Auto's behaviour: small inputs with
// Points stay on the brute path, and inputs past the threshold produce the
// identical result through the index.
func TestClusterAutoIndexThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{100, indexAutoMinN} {
		pts := equivPoints(rng, 1, n)
		brute := DefaultConfig()
		brute.Index = geo.Brute
		want, err := Cluster(n, pointDist(pts), brute)
		if err != nil {
			t.Fatalf("n=%d: brute: %v", n, err)
		}
		auto := DefaultConfig()
		auto.Points = pts
		got, err := Cluster(n, pointDist(pts), auto)
		if err != nil {
			t.Fatalf("n=%d: auto: %v", n, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: auto clustering differs from brute", n)
		}
	}
}

// TestClusterIndexRequiresPoints pins the config validation: an explicit
// indexed strategy without Points is an error, and mismatched lengths are
// rejected.
func TestClusterIndexRequiresPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := equivPoints(rng, 1, 20)
	cfg := DefaultConfig()
	cfg.Index = geo.KDTree
	if _, err := Cluster(20, pointDist(pts), cfg); err == nil {
		t.Fatal("expected error for KDTree strategy without Points")
	}
	cfg.Points = pts[:10]
	if _, err := Cluster(20, pointDist(pts), cfg); err == nil {
		t.Fatal("expected error for mismatched Points length")
	}
}
