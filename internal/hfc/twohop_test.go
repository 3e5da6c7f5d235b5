package hfc

import (
	"math/rand"
	"testing"
)

// TestAnyTwoNodesWithinTwoOverlayRelays is the §3 reachability property:
// between ANY two overlay nodes there is a path through at most two
// intermediate overlay nodes (the border pair), i.e. at most MaxOverlayHops
// hops. Checked exhaustively on random instances.
func TestAnyTwoNodesWithinTwoOverlayRelays(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 4; trial++ {
		n := 20 + rng.Intn(40)
		k := 2 + rng.Intn(5)
		cmap, clustering := randomClusteredInstance(rng, n, k)
		topo, err := Build(cmap, clustering)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				path, err := topo.OverlayHopPath(u, v)
				if err != nil {
					t.Fatalf("OverlayHopPath(%d,%d): %v", u, v, err)
				}
				if hops := len(path) - 1; hops > MaxOverlayHops {
					t.Fatalf("path %v from %d to %d has %d hops, §3 bound is %d", path, u, v, hops, MaxOverlayHops)
				}
				if path[0] != u || path[len(path)-1] != v {
					t.Fatalf("path %v does not connect %d to %d", path, u, v)
				}
				if len(path) < 3 {
					continue // no intermediate relays to check
				}
				for _, hop := range path[1 : len(path)-1] {
					cu, cv := topo.ClusterOf(u), topo.ClusterOf(v)
					if c := topo.ClusterOf(hop); c != cu && c != cv {
						t.Fatalf("relay %d of path %v lies in cluster %d, not in %d or %d", hop, path, c, cu, cv)
					}
				}
			}
		}
	}
}

// TestTwoRelayPropertySurvivesChurn asserts the same bound holds over LIVE
// membership under incremental maintenance: for any two present nodes, the
// dyn-elected border pair yields a ≤ MaxOverlayHops path whose relays are
// all live.
func TestTwoRelayPropertySurvivesChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 3; trial++ {
		n := 24 + rng.Intn(40)
		k := 3 + rng.Intn(3)
		cmap, clustering := randomClusteredInstance(rng, n, k)
		topo, err := Build(cmap, clustering)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		dyn := NewDynamic(topo)
		// Crash ~a third of the nodes, keeping every cluster non-empty.
		for i := 0; i < n; i++ {
			if rng.Intn(3) != 0 {
				continue
			}
			if len(dyn.Members(topo.ClusterOf(i))) == 1 {
				continue
			}
			if err := dyn.Leave(i); err != nil {
				t.Fatalf("Leave(%d): %v", i, err)
			}
		}
		for u := 0; u < n; u++ {
			if !dyn.Present(u) {
				continue
			}
			view, err := dyn.SharedView(u)
			if err != nil {
				t.Fatalf("SharedView(%d): %v", u, err)
			}
			for v := 0; v < n; v++ {
				if !dyn.Present(v) || u == v {
					continue
				}
				cu, cv := topo.ClusterOf(u), topo.ClusterOf(v)
				if cu == cv {
					continue // direct hop, trivially within bound
				}
				bu, bv, err := view.Border(cu, cv)
				if err != nil {
					t.Fatalf("no live border between clusters %d and %d: %v", cu, cv, err)
				}
				if !dyn.Present(bu) || !dyn.Present(bv) {
					t.Fatalf("elected border (%d,%d) includes an absent node", bu, bv)
				}
				// u → bu → bv → v collapses when an endpoint is itself the
				// border: never more than two intermediate relays.
				hops := 1
				if bu != u {
					hops++
				}
				if bv != v {
					hops++
				}
				if hops > MaxOverlayHops {
					t.Fatalf("live path %d→%d→%d→%d has %d hops, bound %d", u, bu, bv, v, hops, MaxOverlayHops)
				}
			}
		}
	}
}
