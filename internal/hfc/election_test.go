package hfc

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"hfc/internal/coords"
)

// TestBuildIndexedMatchesBrute is the tentpole equivalence property for the
// §3.3 elections: across 200 seeded instances large enough to engage the
// geo-indexed path (n >= borderIndexMinN, clusters >= clusterIndexMinSize),
// Build's full border tables are deeply equal to the always-brute
// BuildWithSelector reference. Instances mix separated blobs with snapped
// coordinates so exact cross-distance ties exercise the canonical
// (distance, low, high) order.
func TestBuildIndexedMatchesBrute(t *testing.T) {
	if testing.Short() {
		t.Skip("200-seed property test")
	}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := borderIndexMinN + rng.Intn(256)
		k := 2 + rng.Intn(5)
		cmap, cl := randomClusteredInstance(rng, n, k)
		if seed%2 == 1 {
			// Snap to a coarse lattice: duplicated coordinates force exact
			// ties in the cross-cluster scans.
			for i, p := range cmap.Points {
				cmap.Points[i] = coords.Point{float64(int(p[0]/20)) * 20, float64(int(p[1]/20)) * 20}
			}
		}
		want, err := BuildWithSelector(cmap, cl, ClosestPairSelector())
		if err != nil {
			t.Fatalf("seed %d: brute build: %v", seed, err)
		}
		got, err := Build(cmap, cl)
		if err != nil {
			t.Fatalf("seed %d: indexed build: %v", seed, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (n=%d k=%d): indexed border tables differ from brute", seed, n, k)
		}
	}
}

// TestDynamicIndexedMatchesDirectElections churns an overlay large enough
// for the Dynamic's lazy per-cluster indexes to engage and asserts that
// after every Leave/Rejoin the maintained tables equal a from-scratch brute
// election over the live membership.
func TestDynamicIndexedMatchesDirectElections(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	n, k := borderIndexMinN+128, 4
	cmap, clustering := randomClusteredInstance(rng, n, k)
	topo, err := Build(cmap, clustering)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDynamic(topo)
	d.mu.Lock()
	geoOK := d.geoOK
	d.mu.Unlock()
	if !geoOK {
		t.Fatalf("expected geo indexes enabled at n=%d", n)
	}
	gone := make(map[int]bool)
	for step := 0; step < 120; step++ {
		if len(gone) > 0 && rng.Intn(3) == 0 {
			var nodes []int
			for v := range gone {
				nodes = append(nodes, v)
			}
			sort.Ints(nodes) // map order must not leak into the seeded draw
			v := nodes[rng.Intn(len(nodes))]
			if err := d.Rejoin(v); err != nil {
				t.Fatalf("step %d: Rejoin(%d): %v", step, v, err)
			}
			delete(gone, v)
		} else {
			v := rng.Intn(n)
			if gone[v] {
				continue
			}
			if err := d.Leave(v); err != nil {
				t.Fatalf("step %d: Leave(%d): %v", step, v, err)
			}
			gone[v] = true
		}
	}
	// Reference: brute-elect every live pair directly.
	tab := d.Table()
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			ma, mb := d.Members(a), d.Members(b)
			if len(ma) == 0 || len(mb) == 0 {
				continue
			}
			wantPair, err := closestPair(cmap, ma, mb)
			if err != nil {
				t.Fatalf("pair (%d,%d): %v", a, b, err)
			}
			if got := (BorderPair{Low: int(tab.BorderInA[a*k+b]), High: int(tab.BorderInA[b*k+a])}); got != wantPair {
				t.Fatalf("pair (%d,%d): border=%v want %v", a, b, got, wantPair)
			}
		}
	}
}

// TestElectBordersEmptyCluster pins the error parity between the indexed
// and brute election paths.
func TestElectBordersEmptyCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cmap, clustering := randomClusteredInstance(rng, borderIndexMinN, 2)
	idx := buildElectionIndexes(cmap, clustering)
	if idx == nil {
		t.Fatal("expected election indexes at threshold size")
	}
	if _, err := electBorders(cmap, nil, clustering.Clusters[1], idx.forPair(1)); err == nil {
		t.Fatal("expected error for empty cluster (indexed)")
	}
	if _, err := electBorders(cmap, nil, clustering.Clusters[1], nil); err == nil {
		t.Fatal("expected error for empty cluster (brute)")
	}
}
