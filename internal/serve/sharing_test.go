package serve_test

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"hfc/internal/cluster"
	"hfc/internal/coords"
	"hfc/internal/hfc"
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
// scanning child solver must give the same route, hop for hop, or fail with
// the same error class. The sweep covers requests whose source is their
// destination, a single-cluster overlay, and overlays of singleton clusters.
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
		engineMatchesView(t, topo, states, eng, req)
		if i%5 == 0 {
			req.Source = req.Dest
			engineMatchesView(t, topo, states, eng, req)
			selfServedStaysHome(t, eng, caps, req)
		}
	}

	for _, tc := range []struct {
		name       string
		assignment []int
	}{
		{"one cluster", []int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"singleton clusters", []int{0, 1, 2, 3, 4, 5, 6, 7, 8}},
		{"singletons beside a crowd", []int{0, 0, 0, 0, 1, 2, 3, 3, 4, 5, 5, 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(93))
			topo, states, eng, caps := manualEngine(t, rng, tc.assignment)
			gen, err := svc.NewRequestGenerator(rng, caps, 1, 4)
			if err != nil {
				t.Fatalf("NewRequestGenerator: %v", err)
			}
			for i := 0; i < 120; i++ {
				req, err := gen.Next()
				if err != nil {
					t.Fatalf("Next: %v", err)
				}
				if i%3 == 0 {
					req.Source = req.Dest
				}
				engineMatchesView(t, topo, states, eng, req)
				selfServedStaysHome(t, eng, caps, req)
			}
		})
	}
}

// manualEngine builds an engine over random points in the plane clustered by
// assignment, bypassing the MST detection.
func manualEngine(t *testing.T, rng *rand.Rand, assignment []int) (*hfc.Topology, []state.NodeState, *serve.Engine, []svc.CapabilitySet) {
	t.Helper()
	pts := make([]coords.Point, len(assignment))
	res := &cluster.Result{Assignment: assignment}
	for node, c := range assignment {
		pts[node] = coords.Point{rng.Float64() * 100, rng.Float64() * 100}
		for len(res.Clusters) <= c {
			res.Clusters = append(res.Clusters, nil)
		}
		res.Clusters[c] = append(res.Clusters[c], node)
	}
	cmap, err := coords.NewMap(pts)
	if err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	topo, err := hfc.Build(cmap, res)
	if err != nil {
		t.Fatalf("hfc.Build: %v", err)
	}
	cat, err := svc.NewCatalog(8)
	if err != nil {
		t.Fatalf("NewCatalog: %v", err)
	}
	caps, err := svc.RandomCapabilities(rng, len(pts), cat, 2, 5)
	if err != nil {
		t.Fatalf("RandomCapabilities: %v", err)
	}
	states, _, err := state.Distribute(topo, caps)
	if err != nil {
		t.Fatalf("Distribute: %v", err)
	}
	eng, err := serve.NewEngine(topo, caps, states, serve.Config{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return topo, states, eng, caps
}

// engineMatchesView resolves req on eng and on a router over the
// destination's materialized view, and fails unless both give the same hops
// at the same cost or fail with the same error class.
func engineMatchesView(t *testing.T, topo *hfc.Topology, states []state.NodeState, eng *serve.Engine, req svc.Request) {
	t.Helper()
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
	want, wantErr := oracle.Route(req)
	got, gotErr := eng.Resolve(req)
	if wantErr != nil || gotErr != nil {
		if wantErr == nil || gotErr == nil || errorClass(wantErr) != errorClass(gotErr) {
			t.Fatalf("%d→%d: materialized-view route err %v, engine err %v", req.Source, req.Dest, wantErr, gotErr)
		}
		return
	}
	if got.DecisionCost != want.Path.DecisionCost || !reflect.DeepEqual(got.Hops, want.Path.Hops) {
		t.Fatalf("%d→%d: engine %v (cost %v), materialized view %v (cost %v)",
			req.Source, req.Dest, got.Hops, got.DecisionCost, want.Path.Hops, want.Path.DecisionCost)
	}
}

// selfServedStaysHome pins svc.Request's Source == Dest answer: a request
// its proxy can serve alone never leaves that proxy and costs 0.
func selfServedStaysHome(t *testing.T, eng *serve.Engine, caps []svc.CapabilitySet, req svc.Request) {
	t.Helper()
	if req.Source != req.Dest {
		return
	}
	for _, s := range req.SG.Services {
		if !caps[req.Dest].Has(s) {
			return
		}
	}
	p, err := eng.Resolve(req)
	if err != nil {
		t.Fatalf("%d→%d: %v", req.Source, req.Dest, err)
	}
	for _, h := range p.Hops {
		if h.Node != req.Dest || p.DecisionCost != 0 {
			t.Fatalf("%d→%d, served by the proxy alone: path %v at cost %v", req.Source, req.Dest, p.Hops, p.DecisionCost)
		}
	}
}

// errorClass names the routing sentinel err wraps, or "other".
func errorClass(err error) string {
	for _, sentinel := range []error{routing.ErrNoProviders, routing.ErrInfeasible} {
		if errors.Is(err, sentinel) {
			return sentinel.Error()
		}
	}
	return "other"
}
