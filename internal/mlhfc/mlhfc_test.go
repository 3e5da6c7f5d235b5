package mlhfc

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"hfc/internal/cluster"
	"hfc/internal/coords"
	"hfc/internal/hfc"
	"hfc/internal/routing"
	"hfc/internal/state"
	"hfc/internal/svc"
)

// triWorld generates a three-scale point set: `groups` regions far apart,
// each containing `blobs` clusters of `per` nodes.
func triWorld(t *testing.T, rng *rand.Rand, groups, blobs, per int) *coords.Map {
	t.Helper()
	var pts []coords.Point
	for g := 0; g < groups; g++ {
		gx := float64(g%3) * 5000
		gy := float64(g/3) * 5000
		for b := 0; b < blobs; b++ {
			bx := gx + float64(b%2)*400
			by := gy + float64(b/2)*400
			for i := 0; i < per; i++ {
				pts = append(pts, coords.Point{bx + rng.Float64()*40, by + rng.Float64()*40})
			}
		}
	}
	cmap, err := coords.NewMap(pts)
	if err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	return cmap
}

func buildTri(t *testing.T, seed int64) (*Topology, []svc.CapabilitySet, *States) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cmap := triWorld(t, rng, 3, 3, 6)
	topo, err := Build(cmap, DefaultConfig())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	cat, err := svc.NewCatalog(15)
	if err != nil {
		t.Fatalf("NewCatalog: %v", err)
	}
	caps, err := svc.RandomCapabilities(rng, cmap.N(), cat, 2, 5)
	if err != nil {
		t.Fatalf("RandomCapabilities: %v", err)
	}
	states, err := Distribute(topo, caps)
	if err != nil {
		t.Fatalf("Distribute: %v", err)
	}
	return topo, caps, states
}

func TestBuildDetectsThreeScales(t *testing.T) {
	topo, _, _ := buildTri(t, 1)
	if topo.NumGroups() != 3 {
		t.Fatalf("groups = %d, want 3", topo.NumGroups())
	}
	if err := topo.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Each group's interior should have detected multiple clusters.
	for g := 0; g < topo.NumGroups(); g++ {
		if k := topo.Interior(g).NumClusters(); k < 2 {
			t.Errorf("group %d has %d inner clusters, want >= 2", g, k)
		}
	}
}

func TestIndexTranslationRoundTrip(t *testing.T) {
	topo, _, _ := buildTri(t, 2)
	for node := 0; node < topo.N(); node++ {
		g := topo.GroupOf(node)
		if got := topo.ToGlobal(g, topo.ToLocal(node)); got != node {
			t.Fatalf("node %d round-trips to %d", node, got)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, DefaultConfig()); err == nil {
		t.Error("nil map accepted")
	}
	cmap, err := coords.NewMap([]coords.Point{{0, 0}, {1, 1}})
	if err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	if _, err := BuildFromGrouping(cmap, nil, cluster.DefaultConfig()); err == nil {
		t.Error("nil grouping accepted")
	}
	if _, err := BuildFromGrouping(cmap, &cluster.Result{Assignment: []int{0}, Clusters: [][]int{{0}}}, cluster.DefaultConfig()); err == nil {
		t.Error("size-mismatched grouping accepted")
	}
}

func TestDistributeAndVerify(t *testing.T) {
	topo, caps, states := buildTri(t, 3)
	if err := Verify(topo, caps, states); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// The traffic is the interiors' §4 rounds plus the super exchange: each of
	// the G groups sends its aggregate to the G−1 others, whose super border
	// re-floods it to the rest of its group — (G−1)·G aggregates and
	// (G−1)·(N−G) forwards.
	var want state.MessageStats
	for g := 0; g < topo.NumGroups(); g++ {
		local := make([]svc.CapabilitySet, len(topo.Members(g)))
		for _, node := range topo.Members(g) {
			local[topo.ToLocal(node)] = caps[node]
		}
		_, msgs, err := state.Distribute(topo.Interior(g), local)
		if err != nil {
			t.Fatalf("group %d: state.Distribute: %v", g, err)
		}
		want.LocalMessages += msgs.LocalMessages
		want.AggregateMessages += msgs.AggregateMessages
		want.ForwardMessages += msgs.ForwardMessages
	}
	groups, n := topo.NumGroups(), topo.N()
	want.AggregateMessages += (groups - 1) * groups
	want.ForwardMessages += (groups - 1) * (n - groups)
	if states.Messages != want {
		t.Errorf("Messages = %+v, want %+v", states.Messages, want)
	}
	// Corruption detection.
	states.Super[0].Add("bogus")
	if err := Verify(topo, caps, states); err == nil {
		t.Error("corrupted super-aggregate passed verification")
	}
}

func TestDistributeValidation(t *testing.T) {
	topo, caps, _ := buildTri(t, 4)
	if _, err := Distribute(nil, caps); err == nil {
		t.Error("nil topology accepted")
	}
	if _, err := Distribute(topo, caps[:2]); err == nil {
		t.Error("short caps accepted")
	}
}

func TestRouteProducesValidPaths(t *testing.T) {
	topo, caps, states := buildTri(t, 5)
	rng := rand.New(rand.NewSource(6))
	gen, err := svc.NewRequestGenerator(rng, caps, 2, 5)
	if err != nil {
		t.Fatalf("NewRequestGenerator: %v", err)
	}
	for i := 0; i < 30; i++ {
		req, err := gen.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		res, err := Route(topo, states, req)
		if err != nil {
			t.Fatalf("request %d: Route: %v", i, err)
		}
		if err := res.Path.Validate(req, caps); err != nil {
			t.Fatalf("request %d: invalid path %v: %v", i, res.Path, err)
		}
		if len(res.GSP) != req.SG.Len() {
			t.Fatalf("request %d: GSP covers %d of %d services", i, len(res.GSP), req.SG.Len())
		}
	}
}

func TestRouteMissingService(t *testing.T) {
	topo, _, states := buildTri(t, 7)
	sg, err := svc.Linear("nowhere")
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	if _, err := Route(topo, states, svc.Request{Source: 0, Dest: 1, SG: sg}); err == nil {
		t.Error("undeployed service routed")
	}
}

func TestRouteValidation(t *testing.T) {
	topo, _, states := buildTri(t, 8)
	sg, err := svc.Linear("s0")
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	if _, err := Route(nil, states, svc.Request{Source: 0, Dest: 1, SG: sg}); err == nil {
		t.Error("nil topology accepted")
	}
	if _, err := Route(topo, nil, svc.Request{Source: 0, Dest: 1, SG: sg}); err == nil {
		t.Error("nil states accepted")
	}
	if _, err := Route(topo, states, svc.Request{Source: -1, Dest: 1, SG: sg}); err == nil {
		t.Error("invalid request accepted")
	}
}

func TestStateSizesBelowBiLevel(t *testing.T) {
	// The whole point of the third level: per-node state below the
	// bi-level scheme on the same overlay.
	rng := rand.New(rand.NewSource(9))
	cmap := triWorld(t, rng, 4, 4, 8)
	tri, err := Build(cmap, DefaultConfig())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// Bi-level over the same coordinates.
	flatClustering, err := cluster.Cluster(cmap.N(), cmap.Dist, cluster.DefaultConfig())
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	bi, err := hfc.Build(cmap, flatClustering)
	if err != nil {
		t.Fatalf("hfc.Build: %v", err)
	}
	var triCoord, biCoord, triSvcTotal, biSvcTotal int
	for node := 0; node < cmap.N(); node++ {
		triCoord += tri.CoordinateStateSize(node)
		biCoord += bi.CoordinateStateSize(node)
		triSvcTotal += tri.ServiceStateSize(node)
		biSvcTotal += len(bi.Members(bi.ClusterOf(node))) + bi.NumClusters()
	}
	t.Logf("coord states: tri %.1f vs bi %.1f per node; svc states: tri %.1f vs bi %.1f",
		float64(triCoord)/float64(cmap.N()), float64(biCoord)/float64(cmap.N()),
		float64(triSvcTotal)/float64(cmap.N()), float64(biSvcTotal)/float64(cmap.N()))
	if triSvcTotal >= biSvcTotal {
		t.Errorf("tri-level service state %d not below bi-level %d", triSvcTotal, biSvcTotal)
	}
	if triCoord >= biCoord {
		t.Errorf("tri-level coordinate state %d not below bi-level %d", triCoord, biCoord)
	}
}

// TestCoordinateStateSizeIsTheUnion holds the tri-level count to the set it
// counts: the node's interior entitlement — its inner cluster and the
// interior's border proxies — in global ids, united with every super border.
func TestCoordinateStateSizeIsTheUnion(t *testing.T) {
	deduped := 0
	for seed := int64(1); seed <= 4; seed++ {
		topo, _, _ := buildTri(t, seed)
		for node := 0; node < topo.N(); node++ {
			g := topo.GroupOf(node)
			interior := topo.Interior(g)
			known := make(map[int]bool)
			for _, li := range interior.Members(interior.ClusterOf(topo.ToLocal(node))) {
				known[topo.ToGlobal(g, li)] = true
			}
			for _, li := range interior.BorderNodes() {
				known[topo.ToGlobal(g, li)] = true
			}
			entitled := len(known)
			for _, sb := range topo.super.BorderNodes() {
				known[sb] = true
			}
			if got := topo.CoordinateStateSize(node); got != len(known) {
				t.Fatalf("seed %d: CoordinateStateSize(%d) = %d, the union holds %d", seed, node, got, len(known))
			}
			if len(known) < entitled+len(topo.super.BorderNodes()) {
				deduped++
			}
		}
	}
	if deduped == 0 {
		t.Error("no node's interior entitlement held a super border: the deduplication went untested")
	}
}

func TestTriNeverBeatsUnconstrainedOptimumProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cmap := triWorld(t, rng, 3, 2, 5)
		topo, err := Build(cmap, DefaultConfig())
		if err != nil {
			return false
		}
		cat, err := svc.NewCatalog(10)
		if err != nil {
			return false
		}
		caps, err := svc.RandomCapabilities(rng, cmap.N(), cat, 2, 4)
		if err != nil {
			return false
		}
		states, err := Distribute(topo, caps)
		if err != nil {
			return false
		}
		gen, err := svc.NewRequestGenerator(rng, caps, 2, 4)
		if err != nil {
			return false
		}
		for i := 0; i < 5; i++ {
			req, err := gen.Next()
			if err != nil {
				return false
			}
			res, err := Route(topo, states, req)
			if err != nil {
				return false
			}
			if err := res.Path.Validate(req, caps); err != nil {
				return false
			}
			flat, err := routing.FindPath(req, routing.CapabilityProviders(caps), routing.OracleFunc(cmap.Dist), nil)
			if err != nil {
				return false
			}
			if res.Path.Length(cmap.Dist) < flat.DecisionCost-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func TestSingleGroupDegeneratesToBiLevel(t *testing.T) {
	// Force one group: the tri-level route must equal the bi-level route.
	rng := rand.New(rand.NewSource(11))
	var pts []coords.Point
	for b := 0; b < 3; b++ {
		for i := 0; i < 6; i++ {
			pts = append(pts, coords.Point{float64(b)*400 + rng.Float64()*40, rng.Float64() * 40})
		}
	}
	cmap, err := coords.NewMap(pts)
	if err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	grouping := &cluster.Result{Assignment: make([]int, len(pts)), Clusters: [][]int{allOf(len(pts))}}
	topo, err := BuildFromGrouping(cmap, grouping, cluster.DefaultConfig())
	if err != nil {
		t.Fatalf("BuildFromGrouping: %v", err)
	}
	cat, err := svc.NewCatalog(10)
	if err != nil {
		t.Fatalf("NewCatalog: %v", err)
	}
	caps, err := svc.RandomCapabilities(rng, len(pts), cat, 2, 4)
	if err != nil {
		t.Fatalf("RandomCapabilities: %v", err)
	}
	states, err := Distribute(topo, caps)
	if err != nil {
		t.Fatalf("Distribute: %v", err)
	}
	// Bi-level reference over the same inner clustering.
	inner := topo.Interior(0)
	biStates, _, err := state.Distribute(inner, caps)
	if err != nil {
		t.Fatalf("state.Distribute: %v", err)
	}
	gen, err := svc.NewRequestGenerator(rng, caps, 2, 4)
	if err != nil {
		t.Fatalf("NewRequestGenerator: %v", err)
	}
	for i := 0; i < 10; i++ {
		req, err := gen.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		triRes, err := Route(topo, states, req)
		if err != nil {
			t.Fatalf("tri Route: %v", err)
		}
		r, err := routing.NewHierarchicalRouter(inner, biStates, req.Dest, routing.RelaxBacktrack)
		if err != nil {
			t.Fatalf("NewHierarchicalRouter: %v", err)
		}
		biRes, err := r.Route(req)
		if err != nil {
			t.Fatalf("bi Route: %v", err)
		}
		biPath := biRes.Path
		if len(triRes.Path.Hops) != len(biPath.Hops) {
			t.Fatalf("request %d: tri %v != bi %v", i, triRes.Path, biPath)
		}
		for h := range biPath.Hops {
			if triRes.Path.Hops[h] != biPath.Hops[h] {
				t.Fatalf("request %d hop %d: tri %v != bi %v", i, h, triRes.Path, biPath)
			}
		}
	}
}

func allOf(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestRouteMatchesGroupLevelOracle holds Route — routing.HierarchicalRouter
// over the super tier — to the resolve this package used to run itself
// (oracle_test.go): over seeded tri-level worlds with detected and fixed
// fan-out groupings, sparse and dense deployments, linear chains and DAG
// requests, the two agree on the group-level path, the children, every hop
// and the bits of the cost, and fail on the same requests with the same class
// of error.
func TestRouteMatchesGroupLevelOracle(t *testing.T) {
	const worlds, requests = 40, 60
	routed, failed := 0, 0
	for seed := int64(0); seed < worlds; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		cmap := triWorld(t, rng, 2+rng.Intn(4), 2+rng.Intn(3), 4+rng.Intn(4))
		cfg := DefaultConfig()
		if seed%2 == 1 {
			cfg.TargetGroups = 2 + rng.Intn(4)
		}
		topo, err := Build(cmap, cfg)
		if err != nil {
			t.Fatalf("world %d: Build: %v", seed, err)
		}
		cat, err := svc.NewCatalog(16 + 8*int(seed%3))
		if err != nil {
			t.Fatalf("world %d: NewCatalog: %v", seed, err)
		}
		// One or two services per node leaves part of a large catalog
		// undeployed, so some requests name a service nobody offers.
		caps, err := svc.RandomCapabilities(rng, cmap.N(), cat, 1, 1+int(seed%4))
		if err != nil {
			t.Fatalf("world %d: RandomCapabilities: %v", seed, err)
		}
		states, err := Distribute(topo, caps)
		if err != nil {
			t.Fatalf("world %d: Distribute: %v", seed, err)
		}
		for i := 0; i < requests; i++ {
			var req svc.Request
			if i%3 == 2 {
				req, err = svc.RandomDAGRequest(rng, cat, cmap.N(), 2, 1+rng.Intn(2), 1+rng.Intn(2))
			} else {
				req, err = svc.RandomLinearRequest(rng, cat, cmap.N(), 1, 6)
			}
			if err != nil {
				t.Fatalf("world %d request %d: %v", seed, i, err)
			}
			want, wantErr := routeOracle(topo, states, req)
			got, gotErr := Route(topo, states, req)
			if wantErr != nil || gotErr != nil {
				failed++
				for _, class := range []error{routing.ErrNoProviders, routing.ErrInfeasible} {
					if errors.Is(wantErr, class) != errors.Is(gotErr, class) {
						t.Fatalf("world %d request %d: Route: %v, oracle: %v", seed, i, gotErr, wantErr)
					}
				}
				if wantErr == nil || gotErr == nil {
					t.Fatalf("world %d request %d: Route: %v, oracle: %v", seed, i, gotErr, wantErr)
				}
				continue
			}
			routed++
			if len(got.GSP) != len(want.GSP) {
				t.Fatalf("world %d request %d: GSP %v, oracle %v", seed, i, got.GSP, want.GSP)
			}
			for j, e := range want.GSP {
				if got.GSP[j].SGVertex != e.SGVertex || got.GSP[j].Cluster != e.Group {
					t.Fatalf("world %d request %d: GSP %v, oracle %v", seed, i, got.GSP, want.GSP)
				}
			}
			if len(got.Children) != len(want.Children) {
				t.Fatalf("world %d request %d: children %v, oracle %v", seed, i, got.Children, want.Children)
			}
			for j, c := range want.Children {
				g := got.Children[j]
				if g.Cluster != c.Group || g.Source != c.Source || g.Dest != c.Dest || !slices.Equal(g.Services, c.Services) {
					t.Fatalf("world %d request %d child %d: %+v, oracle %+v", seed, i, j, g, c)
				}
			}
			if !slices.Equal(got.Path.Hops, want.Path.Hops) {
				t.Fatalf("world %d request %d: path %v, oracle %v", seed, i, got.Path, want.Path)
			}
			if math.Float64bits(got.Path.DecisionCost) != math.Float64bits(want.Path.DecisionCost) {
				t.Fatalf("world %d request %d: cost %v, oracle %v", seed, i, got.Path.DecisionCost, want.Path.DecisionCost)
			}
		}
	}
	t.Logf("%d worlds x %d requests: %d routed identically, %d failed alike", worlds, requests, routed, failed)
	if routed < worlds*requests/2 || failed == 0 {
		t.Errorf("mix is one-sided: %d routed, %d failed", routed, failed)
	}
}
