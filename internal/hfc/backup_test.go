package hfc

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"hfc/internal/cluster"
	"hfc/internal/coords"
)

// This file is the live-table suite: what a Dynamic publishes under churn,
// and what the views attached to it read.

// threeClusterFixture: 4 nodes per cluster, so a cluster can lose several
// borders and still have a live member to elect.
func threeClusterFixture(t *testing.T) *Topology {
	t.Helper()
	pts := []coords.Point{
		{0, 0}, {0, 10}, {0, 20}, {0, 30}, // cluster 0
		{100, 0}, {100, 10}, {100, 20}, {100, 30}, // cluster 1
		{50, 200}, {50, 210}, {50, 220}, {50, 230}, // cluster 2
	}
	return manualTopology(t, pts, []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2})
}

// buildOverLive is the from-scratch reference for a Dynamic: hfc.Build over
// the same coordinates with every cluster cut down to its live members (an
// absent node keeps its assignment but is in no member list, so it can win
// no election).
func buildOverLive(t *testing.T, topo *Topology, present []bool) *Topology {
	t.Helper()
	live := make([][]int, topo.NumClusters())
	for c := range live {
		for _, m := range topo.Members(c) {
			if present[m] {
				live[c] = append(live[c], m)
			}
		}
	}
	ref, err := Build(topo.Coords(), &cluster.Result{Assignment: topo.Clustering().Assignment, Clusters: live})
	if err != nil {
		t.Fatalf("Build over the live membership: %v", err)
	}
	return ref
}

// sameTable reports whether two tables hold the same pairs and bit-identical
// link lengths.
func sameTable(a, b *DenseTables) bool {
	if a.K != b.K || !reflect.DeepEqual(a.BorderInA, b.BorderInA) || len(a.Ext) != len(b.Ext) {
		return false
	}
	for i := range a.Ext {
		if math.Float64bits(a.Ext[i]) != math.Float64bits(b.Ext[i]) {
			return false
		}
	}
	return true
}

// churn drives the Dynamic equivalence schedule — four seeded overlays, 60
// membership flips each, half of them aimed at a border proxy (the nodes
// whose departure actually changes elections), never emptying a cluster — and
// calls check after every flip.
func churn(t *testing.T, check func(trial, step int, topo *Topology, dyn *Dynamic, present []bool)) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4; trial++ {
		n := 30 + rng.Intn(50)
		k := 3 + rng.Intn(4)
		cmap, clustering := randomClusteredInstance(rng, n, k)
		topo, err := Build(cmap, clustering)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		dyn := NewDynamic(topo)
		present := make([]bool, n)
		for i := range present {
			present[i] = true
		}
		for step := 0; step < 60; step++ {
			var node int
			if rng.Intn(2) == 0 && len(topo.BorderNodes()) > 0 {
				node = topo.BorderNodes()[rng.Intn(len(topo.BorderNodes()))]
			} else {
				node = rng.Intn(n)
			}
			if present[node] {
				// Keep every cluster non-empty so routing stays defined.
				if len(dyn.Members(topo.ClusterOf(node))) == 1 {
					continue
				}
				if err := dyn.Leave(node); err != nil {
					t.Fatalf("Leave(%d): %v", node, err)
				}
			} else {
				if err := dyn.Rejoin(node); err != nil {
					t.Fatalf("Rejoin(%d): %v", node, err)
				}
			}
			present[node] = !present[node]
			check(trial, step, topo, dyn, present)
		}
		// The incremental path must actually skip work: strictly fewer
		// recomputes than checks (the whole point of the maintenance).
		st := dyn.Stats()
		if st.PairsRecomputed >= st.PairsChecked {
			t.Errorf("trial %d: recomputed %d of %d checked pairs — nothing was skipped",
				trial, st.PairsRecomputed, st.PairsChecked)
		}
	}
}

// TestDynamicTableMatchesRebuildUnderChurn: after ANY sequence of leaves and
// rejoins that leaves every cluster a member, the published table is the one
// hfc.Build elects over the live membership — the same pairs, Build's
// tie-break included, and bit-identical link lengths.
func TestDynamicTableMatchesRebuildUnderChurn(t *testing.T) {
	churn(t, func(trial, step int, topo *Topology, dyn *Dynamic, present []bool) {
		if want := buildOverLive(t, topo, present).static; !sameTable(dyn.Table(), want) {
			t.Fatalf("trial %d step %d: published table %v, Build over the live membership elects %v",
				trial, step, dyn.Table().BorderInA, want.BorderInA)
		}
	})
}

// TestDynamicNoChurnTableIsTopologys: before any membership change a Dynamic
// publishes the topology's own table, and a leave that is undone brings back
// one bit-equal to it.
func TestDynamicNoChurnTableIsTopologys(t *testing.T) {
	cmap, clustering := randomClusteredInstance(rand.New(rand.NewSource(3)), 40, 4)
	topo, err := Build(cmap, clustering)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	dyn := NewDynamic(topo)
	if dyn.Table() != topo.static {
		t.Error("a churn-free Dynamic publishes a table of its own, want the topology's")
	}
	border := topo.BorderNodes()[0]
	if err := dyn.Leave(border); err != nil {
		t.Fatalf("Leave(%d): %v", border, err)
	}
	if sameTable(dyn.Table(), topo.static) {
		t.Errorf("border proxy %d left and the table did not move", border)
	}
	if err := dyn.Rejoin(border); err != nil {
		t.Fatalf("Rejoin(%d): %v", border, err)
	}
	if !sameTable(dyn.Table(), topo.static) {
		t.Errorf("after %d rejoined the table is %v, want the topology's %v", border, dyn.Table().BorderInA, topo.static.BorderInA)
	}
}

// TestPublishedTableIsNeverWritten: a table a reader loaded stays what it
// was through every later Leave, Rejoin and Rebuild, while readers index
// whatever is current (run under -race).
func TestPublishedTableIsNeverWritten(t *testing.T) {
	cmap, clustering := randomClusteredInstance(rand.New(rand.NewSource(11)), 60, 5)
	topo, err := Build(cmap, clustering)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	dyn := NewDynamic(topo)
	view, err := dyn.SharedView(0)
	if err != nil {
		t.Fatalf("SharedView: %v", err)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for a := 0; a < topo.NumClusters(); a++ {
					for b := 0; b < topo.NumClusters(); b++ {
						if a == b {
							continue
						}
						inA, inB, err := view.Border(a, b)
						if err != nil || topo.ClusterOf(inA) != a || topo.ClusterOf(inB) != b {
							t.Errorf("Border(%d,%d) = (%d,%d,%v) during churn", a, b, inA, inB, err)
							return
						}
					}
				}
			}
		}()
	}
	type held struct{ table, copy *DenseTables }
	var loaded []held
	hold := func() {
		loaded = append(loaded, held{dyn.Table(), dyn.Table().clone()})
	}
	hold()
	for _, node := range topo.BorderNodes() {
		if err := dyn.Leave(node); err != nil {
			t.Fatalf("Leave(%d): %v", node, err)
		}
		hold()
		if err := dyn.Rebuild(); err != nil {
			t.Fatalf("Rebuild: %v", err)
		}
		hold()
		if err := dyn.Rejoin(node); err != nil {
			t.Fatalf("Rejoin(%d): %v", node, err)
		}
		hold()
	}
	close(stop)
	readers.Wait()
	for i, h := range loaded {
		if !reflect.DeepEqual(h.table, h.copy) {
			t.Errorf("the table loaded %d-th was written after it was published", i)
		}
	}
}

// TestDynamicEmptiedClusterKeepsStaticPrimary drains a whole cluster: with
// no live member there is no election to run, so its pairs go back to what
// Build chose (and Border keeps answering), while the pairs of the clusters
// that still have members are unaffected; repopulating it restores the
// static table.
func TestDynamicEmptiedClusterKeepsStaticPrimary(t *testing.T) {
	cmap, clustering := randomClusteredInstance(rand.New(rand.NewSource(5)), 12, 3)
	topo, err := Build(cmap, clustering)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	dyn := NewDynamic(topo)
	view, err := dyn.SharedView(topo.Members(1)[0])
	if err != nil {
		t.Fatalf("SharedView: %v", err)
	}
	victims := append([]int(nil), topo.Members(0)...)
	for i, v := range victims {
		if err := dyn.Leave(v); err != nil {
			t.Fatalf("Leave(%d): %v", v, err)
		}
		if i < len(victims)-1 {
			if inA, _, err := view.Border(0, 1); err != nil || !dyn.Present(inA) {
				t.Fatalf("with %d of cluster 0 gone Border(0,1) crosses at %d (%v), want a live member", i+1, inA, err)
			}
		}
	}
	for _, other := range []int{1, 2} {
		wantA, wantB, _ := topo.Border(0, other)
		gotA, gotB, err := view.Border(0, other)
		if err != nil || gotA != wantA || gotB != wantB {
			t.Errorf("Border(0,%d) toward the emptied cluster = (%d,%d,%v), want the static (%d,%d)", other, gotA, gotB, err, wantA, wantB)
		}
	}
	wantA, wantB, _ := topo.Border(1, 2)
	if gotA, gotB, err := view.Border(1, 2); err != nil || gotA != wantA || gotB != wantB {
		t.Errorf("Border(1,2) = (%d,%d,%v) after cluster 0 emptied, want (%d,%d)", gotA, gotB, err, wantA, wantB)
	}
	for _, v := range victims {
		if err := dyn.Rejoin(v); err != nil {
			t.Fatalf("Rejoin(%d): %v", v, err)
		}
	}
	if !sameTable(dyn.Table(), topo.static) {
		t.Errorf("after full rejoin the table is %v, want the topology's %v", dyn.Table().BorderInA, topo.static.BorderInA)
	}
}

// TestViewBorderFailover: a view attached to a Dynamic crosses at the closest
// pair of live members however many borders have failed, and prices the link
// from coordinates it can resolve; a detached view of the same topology keeps
// answering with the pair Build elected.
func TestViewBorderFailover(t *testing.T) {
	topo := threeClusterFixture(t)
	dyn := NewDynamic(topo)
	attached, err := dyn.SharedView(0)
	if err != nil {
		t.Fatalf("Dynamic.SharedView: %v", err)
	}
	detached, err := topo.SharedView(0)
	if err != nil {
		t.Fatalf("SharedView: %v", err)
	}
	u, w, err := topo.Border(0, 1)
	if err != nil {
		t.Fatalf("Border: %v", err)
	}
	if au, aw, err := attached.Border(0, 1); err != nil || au != u || aw != w {
		t.Fatalf("attached Border(0,1) with nobody down = (%d,%d,%v), want the static (%d,%d)", au, aw, err, u, w)
	}

	// Take cluster 0's border down, then the proxy elected in its place,
	// then the next: each time the pair is the closest among who is left.
	present := make([]bool, topo.N())
	for i := range present {
		present[i] = true
	}
	for round := 0; round < 3; round++ {
		down, _, err := attached.Border(0, 1)
		if err != nil {
			t.Fatalf("Border: %v", err)
		}
		if err := dyn.Leave(down); err != nil {
			t.Fatalf("Leave(%d): %v", down, err)
		}
		present[down] = false
		fu, fw, err := attached.Border(0, 1)
		if err != nil {
			t.Fatalf("Border after %d failures: %v", round+1, err)
		}
		if !present[fu] || !present[fw] {
			t.Errorf("after %d failures the attached view crosses at (%d,%d), one of which is down", round+1, fu, fw)
		}
		want, err := closestPair(topo.Coords(), dyn.Members(0), dyn.Members(1))
		if err != nil {
			t.Fatalf("closestPair: %v", err)
		}
		if fu != want.Low || fw != want.High {
			t.Errorf("after %d failures the attached view crosses at (%d,%d), closest live pair is %v", round+1, fu, fw, want)
		}
		if bu, bw, err := attached.Border(1, 0); err != nil || bu != fw || bw != fu {
			t.Errorf("Border(1,0) = (%d,%d,%v), want Border(0,1) = (%d,%d) reversed", bu, bw, err, fu, fw)
		}
		ext := attached.Dense().Ext[0*3+1]
		if d, err := attached.Dist(fu, fw); err != nil || math.Float64bits(d) != math.Float64bits(ext) {
			t.Errorf("Dist(%d,%d) = %v, %v; the table prices the link at %v", fu, fw, d, err, ext)
		}
		if du, dw, err := detached.Border(0, 1); err != nil || du != u || dw != w {
			t.Errorf("detached Border(0,1) = (%d,%d,%v) after %d failures, want the static (%d,%d)", du, dw, err, round+1, u, w)
		}
	}

	for _, v := range []*NodeView{attached, detached} {
		if _, _, err := v.Border(1, 1); err == nil {
			t.Error("same-cluster border query accepted")
		}
		if _, _, err := v.Border(-1, 0); err == nil {
			t.Error("out-of-range cluster accepted")
		}
	}
}
