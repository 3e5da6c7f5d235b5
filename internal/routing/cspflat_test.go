package routing

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"hfc/internal/hfc"
	"hfc/internal/svc"
)

// relaxModes is every mode the equivalence tests draw from.
var relaxModes = []RelaxMode{RelaxBacktrack, RelaxExact, RelaxExternalOnly}

// TestClusterLevelPathFlatMatchesGeneric is the flat/oracle equivalence
// property: across random overlays, all three relax modes, provider
// indexes, QoS admissibility hooks, and views attached to a Dynamic that has
// lost border proxies, clusterLevelPath returns exactly the map-based
// oracle's CSP, bit-identical cost, and identical errors.
func TestClusterLevelPathFlatMatchesGeneric(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		topo, caps, states := randomOverlay(t, rng, 3+int(seed%3), 6, 10)
		gen, err := svc.NewRequestGenerator(rng, caps, 2, 5)
		if err != nil {
			t.Fatalf("seed %d: NewRequestGenerator: %v", seed, err)
		}
		for trial := 0; trial < 10; trial++ {
			req, err := gen.Next()
			if err != nil {
				t.Fatalf("seed %d: Next: %v", seed, err)
			}
			view, err := topo.View(req.Dest)
			if err != nil {
				t.Fatalf("seed %d: View(%d): %v", seed, req.Dest, err)
			}
			// trial%3 here against trial%5 below: every mode meets every hook.
			mode := relaxModes[trial%3]
			r := &HierarchicalRouter{
				View:            view,
				State:           &states[req.Dest],
				ClusterOfSource: topo.ClusterOf,
				Mode:            mode,
			}
			if trial%2 == 1 {
				r.Index = BuildProviderIndex(&states[req.Dest], topo.Members(topo.ClusterOf(req.Dest)))
			}
			switch trial % 5 {
			case 1:
				// A view attached to a Dynamic that lost every node with
				// n%4 == 1: the search crosses at the re-elected pairs.
				r.View = viewAfterLosing(t, topo, req.Dest, func(n int) bool { return n%4 == 1 })
			case 2:
				r.ClusterAdmissible = func(s svc.Service, c int) bool {
					return (len(s)+c)%5 != 0
				}
			case 3:
				r.CrossingAdmissible = func(a, b int) bool { return (a+b)%7 != 3 }
			case 4:
				// A view attached to a Dynamic that lost the low-side border
				// of every other cluster pair.
				lost := map[int]bool{}
				for a := 0; a < topo.NumClusters(); a++ {
					for b := a + 1; b < topo.NumClusters(); b++ {
						if inA, _, err := topo.Border(a, b); err == nil && (a+b)%2 == 1 {
							lost[inA] = true
						}
					}
				}
				r.View = viewAfterLosing(t, topo, req.Dest, func(n int) bool { return lost[n] })
			}
			srcCluster := topo.ClusterOf(req.Source)
			destCluster := view.ClusterID

			cspF, costF, errF := searchCSP(r, r.View.Dense(), req, srcCluster, destCluster)
			cspG, costG, errG := r.clusterLevelPathGeneric(req, srcCluster, destCluster)
			if (errF == nil) != (errG == nil) {
				t.Fatalf("seed %d trial %d: flat err %v, generic err %v", seed, trial, errF, errG)
			}
			if errF != nil {
				if errF.Error() != errG.Error() {
					t.Fatalf("seed %d trial %d: flat err %q, generic err %q", seed, trial, errF, errG)
				}
				continue
			}
			if math.Float64bits(costF) != math.Float64bits(costG) {
				t.Fatalf("seed %d trial %d: flat cost %v, generic cost %v (must be bit-identical)",
					seed, trial, costF, costG)
			}
			if len(cspF) != len(cspG) {
				t.Fatalf("seed %d trial %d: flat CSP %v, generic CSP %v", seed, trial, cspF, cspG)
			}
			for i := range cspF {
				if cspF[i] != cspG[i] {
					t.Fatalf("seed %d trial %d: CSP entry %d: flat %v, generic %v",
						seed, trial, i, cspF[i], cspG[i])
				}
			}
		}
	}
}

// viewAfterLosing returns dest's view attached to a fresh Dynamic that every
// node lose selects — dest itself and the last live member of a cluster
// excepted — has left.
func viewAfterLosing(t *testing.T, topo *hfc.Topology, dest int, lose func(node int) bool) *hfc.NodeView {
	t.Helper()
	dyn := hfc.NewDynamic(topo)
	for n := 0; n < topo.N(); n++ {
		if !lose(n) || n == dest || len(dyn.Members(topo.ClusterOf(n))) == 1 {
			continue
		}
		if err := dyn.Leave(n); err != nil {
			t.Fatalf("Leave(%d): %v", n, err)
		}
	}
	view, err := dyn.SharedView(dest)
	if err != nil {
		t.Fatalf("Dynamic.SharedView(%d): %v", dest, err)
	}
	return view
}

// TestClusterLevelPathFlatSharedView repeats the equivalence check on
// aliasing SharedViews (the 100k-node runtime's view flavor), whose table
// holds every node's coordinate instead of the entitlement alone.
func TestClusterLevelPathFlatSharedView(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	topo, caps, states := randomOverlay(t, rng, 4, 6, 10)
	gen, err := svc.NewRequestGenerator(rng, caps, 2, 5)
	if err != nil {
		t.Fatalf("NewRequestGenerator: %v", err)
	}
	for trial := 0; trial < 20; trial++ {
		req, err := gen.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		mkRouter := func(view *hfc.NodeView) *HierarchicalRouter {
			return &HierarchicalRouter{
				View:            view,
				State:           &states[req.Dest],
				ClusterOfSource: topo.ClusterOf,
				Mode:            relaxModes[trial%3],
			}
		}
		shared, err := topo.SharedView(req.Dest)
		if err != nil {
			t.Fatalf("SharedView(%d): %v", req.Dest, err)
		}
		rs := mkRouter(shared)
		cspF, costF, errF := searchCSP(rs, shared.Dense(), req, topo.ClusterOf(req.Source), shared.ClusterID)
		cspG, costG, errG := rs.clusterLevelPathGeneric(req, topo.ClusterOf(req.Source), shared.ClusterID)
		if (errF == nil) != (errG == nil) {
			t.Fatalf("trial %d: flat err %v, generic err %v", trial, errF, errG)
		}
		if errF != nil {
			if errF.Error() != errG.Error() {
				t.Fatalf("trial %d: flat err %q, generic err %q", trial, errF, errG)
			}
			continue
		}
		if math.Float64bits(costF) != math.Float64bits(costG) {
			t.Fatalf("trial %d: flat cost %v, generic cost %v", trial, costF, costG)
		}
		for i := range cspF {
			if cspF[i] != cspG[i] {
				t.Fatalf("trial %d: CSP entry %d: flat %v, generic %v", trial, i, cspF[i], cspG[i])
			}
		}
	}
}

// searchCSP runs the cluster-level search on a pooled route scratch — dirty
// with whatever the previous resolve left — and copies the CSP out.
func searchCSP(r *HierarchicalRouter, dt *hfc.DenseTables, req svc.Request, srcCluster, destCluster int) ([]CSPEntry, float64, error) {
	sc := routePool.Get().(*routeScratch)
	defer sc.release()
	cost, err := r.clusterLevelPath(dt, req, srcCluster, destCluster, sc)
	if err != nil {
		return nil, 0, err
	}
	return slices.Clone(sc.csp), cost, nil
}
