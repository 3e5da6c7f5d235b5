package hfc

import (
	"math/rand"
	"testing"

	"hfc/internal/coords"
)

// threeClusterFixture: 4 nodes per cluster so every cluster pair can afford
// a node-disjoint backup behind the primary.
func threeClusterFixture(t *testing.T) *Topology {
	t.Helper()
	pts := []coords.Point{
		{0, 0}, {0, 10}, {0, 20}, {0, 30}, // cluster 0
		{100, 0}, {100, 10}, {100, 20}, {100, 30}, // cluster 1
		{50, 200}, {50, 210}, {50, 220}, {50, 230}, // cluster 2
	}
	return manualTopology(t, pts, []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2})
}

func TestBackupBordersRankedAndDisjoint(t *testing.T) {
	topo := threeClusterFixture(t)
	for a := 0; a < topo.NumClusters(); a++ {
		for b := 0; b < topo.NumClusters(); b++ {
			if a == b {
				continue
			}
			u, v, err := topo.Border(a, b)
			if err != nil {
				t.Fatalf("Border(%d,%d): %v", a, b, err)
			}
			backs, err := topo.BackupBorders(a, b)
			if err != nil {
				t.Fatalf("BackupBorders(%d,%d): %v", a, b, err)
			}
			if len(backs) == 0 {
				t.Fatalf("clusters (%d,%d): no backup pairs despite 4-node clusters", a, b)
			}
			used := map[int]bool{u: true, v: true}
			prevDist := topo.Dist(u, v)
			for i, p := range backs {
				if topo.ClusterOf(p[0]) != a || topo.ClusterOf(p[1]) != b {
					t.Errorf("backup %d of (%d,%d) = %v not oriented (inA,inB)", i, a, b, p)
				}
				if used[p[0]] || used[p[1]] {
					t.Errorf("backup %d of (%d,%d) = %v reuses an earlier border node", i, a, b, p)
				}
				used[p[0]], used[p[1]] = true, true
				d := topo.Dist(p[0], p[1])
				if d < prevDist-1e-12 {
					t.Errorf("backup %d of (%d,%d) is closer (%v) than its predecessor (%v)", i, a, b, d, prevDist)
				}
				prevDist = d
			}
		}
	}
	if err := topo.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBackupBordersValidation(t *testing.T) {
	topo := threeClusterFixture(t)
	if _, err := topo.BackupBorders(1, 1); err == nil {
		t.Error("same-cluster backup query accepted")
	}
	if _, err := topo.BackupBorders(-1, 0); err == nil {
		t.Error("out-of-range cluster accepted")
	}
}

func TestBackupBordersTinyClustersMayBeEmpty(t *testing.T) {
	topo := fourClusterFixture(t) // 2-node clusters: primary uses up to both nodes
	backs, err := topo.BackupBorders(0, 1)
	if err != nil {
		t.Fatalf("BackupBorders: %v", err)
	}
	// With 2-node clusters at most one disjoint spare exists.
	if len(backs) > 1 {
		t.Errorf("2-node clusters produced %d backups, want <= 1", len(backs))
	}
}

func TestViewBorderFailover(t *testing.T) {
	topo := threeClusterFixture(t)
	v, err := topo.View(0)
	if err != nil {
		t.Fatalf("View: %v", err)
	}
	u, w, err := v.Border(0, 1)
	if err != nil {
		t.Fatalf("Border: %v", err)
	}
	ranked, err := v.BorderRanked(0, 1)
	if err != nil {
		t.Fatalf("BorderRanked: %v", err)
	}
	if ranked[0] != [2]int{u, w} {
		t.Fatalf("BorderRanked[0] = %v, want primary (%d,%d)", ranked[0], u, w)
	}
	if len(ranked) < 2 {
		t.Fatal("no backup pair in ranked list")
	}

	// Kill one primary endpoint: Border must fall over to the first
	// backup, whose coordinates the view holds (Dist must work).
	dead := map[int]bool{u: true}
	v.Alive = func(n int) bool { return !dead[n] }
	fu, fw, err := v.Border(0, 1)
	if err != nil {
		t.Fatalf("Border with failure detector: %v", err)
	}
	if fu == u {
		t.Errorf("failover still uses crashed border %d", u)
	}
	if [2]int{fu, fw} != ranked[1] {
		t.Errorf("failover pair (%d,%d), want first backup %v", fu, fw, ranked[1])
	}
	if _, err := v.Dist(fu, fw); err != nil {
		t.Errorf("view lacks coordinates for backup pair: %v", err)
	}

	// Everything dead: fall back to the primary rather than erroring.
	v.Alive = func(int) bool { return false }
	pu, pw, err := v.Border(0, 1)
	if err != nil {
		t.Fatalf("Border with all-dead detector: %v", err)
	}
	if pu != u || pw != w {
		t.Errorf("all-dead fallback (%d,%d), want primary (%d,%d)", pu, pw, u, w)
	}
}

// TestBorderIsFirstLiveRankedPair holds Border, which walks the primary and
// the backups in place, to its definition over the list it no longer builds:
// the first element of BorderRanked whose endpoints are both alive, the
// primary when none is — on a materialized and a shared view, in both
// orientations, for random failure sets, with an override in front.
func TestBorderIsFirstLiveRankedPair(t *testing.T) {
	topo := threeClusterFixture(t)
	copied, err := topo.View(0)
	if err != nil {
		t.Fatalf("View: %v", err)
	}
	shared, err := topo.SharedView(5)
	if err != nil {
		t.Fatalf("SharedView: %v", err)
	}
	rng := rand.New(rand.NewSource(17))
	for _, v := range []*NodeView{copied, shared} {
		for trial := 0; trial < 200; trial++ {
			// Trial 0 has no detector, 1 an all-live one, 2 an all-dead one;
			// the rest kill each node with a probability that covers "primary
			// dead", "some backups dead" and "every pair dead".
			dead := map[int]bool{}
			if p := rng.Float64(); trial > 2 {
				for n := 0; n < topo.N(); n++ {
					dead[n] = rng.Float64() < p
				}
			}
			v.Alive = func(n int) bool { return trial != 2 && !dead[n] }
			if trial == 0 {
				v.Alive = nil
			}
			for a := 0; a < topo.NumClusters(); a++ {
				for b := 0; b < topo.NumClusters(); b++ {
					ranked, rerr := v.BorderRanked(a, b)
					inA, inB, err := v.Border(a, b)
					if (err == nil) != (rerr == nil) || (err != nil && err.Error() != rerr.Error()) {
						t.Fatalf("Border(%d,%d) error %v, BorderRanked error %v", a, b, err, rerr)
					}
					if err != nil {
						continue
					}
					want := ranked[0]
					for _, p := range ranked {
						if v.Alive != nil && v.Alive(p[0]) && v.Alive(p[1]) {
							want = p
							break
						}
					}
					if got := [2]int{inA, inB}; got != want {
						t.Fatalf("trial %d: Border(%d,%d) = %v, first live of %v is %v (dead %v)", trial, a, b, got, ranked, want, dead)
					}
				}
			}
		}
		// An override answers before the table is consulted; declining falls
		// through to the ranked walk.
		v.Alive = nil
		v.BorderOverride = func(a, b int) (int, int, bool) { return 100 + a, 100 + b, a == 0 }
		if inA, inB, err := v.Border(0, 2); err != nil || inA != 100 || inB != 102 {
			t.Errorf("Border(0,2) under an override = (%d,%d,%v), want (100,102,nil)", inA, inB, err)
		}
		ranked, _ := v.BorderRanked(1, 2)
		if inA, inB, err := v.Border(1, 2); err != nil || [2]int{inA, inB} != ranked[0] {
			t.Errorf("Border(1,2) with the override declining = (%d,%d,%v), want primary %v", inA, inB, err, ranked[0])
		}
		v.BorderOverride = nil
	}
}
