package serve_test

import (
	"math/rand"
	"reflect"
	"testing"

	"hfc/internal/routing"
	"hfc/internal/serve"
	"hfc/internal/state"
	"hfc/internal/svc"
)

// TestUpdateLeavesCallerStatesIntact: state.Distribute hands out shared
// tables, so the engine must replace them, never edit them. After every one
// of 50 seeded updates the states the caller gave NewEngine still describe
// the old deployment, and the engine's own equal a fresh distribution of
// the new one.
func TestUpdateLeavesCallerStatesIntact(t *testing.T) {
	fw, eng, caps := buildEngine(t, 81, 60, serve.Config{})
	topo, given := fw.Topology(), fw.States()
	cat, err := svc.NewCatalog(12)
	if err != nil {
		t.Fatalf("NewCatalog: %v", err)
	}
	rng := rand.New(rand.NewSource(82))
	current := make([]svc.CapabilitySet, len(caps))
	copy(current, caps)
	for i := 0; i < 50; i++ {
		node := rng.Intn(topo.N())
		fresh, err := svc.RandomCapabilities(rng, 1, cat, 2, 5)
		if err != nil {
			t.Fatalf("RandomCapabilities: %v", err)
		}
		if err := eng.UpdateCapability(node, fresh[0]); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		current[node] = fresh[0]
		if err := state.VerifyConvergence(topo, caps, given); err != nil {
			t.Fatalf("update %d changed the caller's states: %v", i, err)
		}
		want, _, err := state.Distribute(topo, current)
		if err != nil {
			t.Fatalf("Distribute: %v", err)
		}
		if !reflect.DeepEqual(eng.States(), want) {
			t.Fatalf("update %d: engine states differ from a fresh Distribute of the new deployment", i)
		}
	}
}

// TestEngineMatchesMaterialisedView: the engine routes on the shared view,
// the topology's one dense table and the per-table provider indexes. A
// router on the destination's materialized Fig. 4 view — which errors on any
// coordinate outside the entitlement — with that node's own index and the
// scanning child solver must give the same route, hop for hop.
func TestEngineMatchesMaterialisedView(t *testing.T) {
	fw, eng, caps := buildEngine(t, 91, 150, serve.Config{})
	topo, states := fw.Topology(), fw.States()
	gen, err := svc.NewRequestGenerator(rand.New(rand.NewSource(92)), caps, 2, 6)
	if err != nil {
		t.Fatalf("NewRequestGenerator: %v", err)
	}
	for i := 0; i < 500; i++ {
		req, err := gen.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		view, err := topo.View(req.Dest)
		if err != nil {
			t.Fatalf("View(%d): %v", req.Dest, err)
		}
		oracle := routing.HierarchicalRouter{
			View:            view,
			State:           &states[req.Dest],
			Intra:           &routing.LocalIntraSolver{Topo: topo, States: states},
			ClusterOfSource: topo.ClusterOf,
			Index:           routing.BuildProviderIndex(&states[req.Dest], topo.Members(topo.ClusterOf(req.Dest))),
		}
		want, err := oracle.Route(req)
		if err != nil {
			t.Fatalf("request %d: materialized-view route: %v", i, err)
		}
		got, err := eng.Resolve(req)
		if err != nil {
			t.Fatalf("request %d: engine Resolve: %v", i, err)
		}
		//hfcvet:ignore floatdist the shared tables must reproduce the materialized view's result bit-identically
		if got.DecisionCost != want.Path.DecisionCost || !reflect.DeepEqual(got.Hops, want.Path.Hops) {
			t.Fatalf("request %d: engine %v (cost %v), materialized view %v (cost %v)",
				i, got.Hops, got.DecisionCost, want.Path.Hops, want.Path.DecisionCost)
		}
	}
}
