package routing

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"hfc/internal/cluster"
	"hfc/internal/coords"
	"hfc/internal/hfc"
	"hfc/internal/state"
	"hfc/internal/svc"
)

// randomOverlay builds a clusterable random overlay with converged state:
// nClusters blobs of blobSize nodes, capabilities drawn from catSize
// services.
func randomOverlay(t testing.TB, rng *rand.Rand, nClusters, blobSize, catSize int) (*hfc.Topology, []svc.CapabilitySet, []state.NodeState) {
	t.Helper()
	var pts []coords.Point
	for c := 0; c < nClusters; c++ {
		cx := float64(c%3) * 400
		cy := float64(c/3) * 400
		for i := 0; i < blobSize; i++ {
			pts = append(pts, coords.Point{cx + rng.Float64()*30, cy + rng.Float64()*30})
		}
	}
	cmap, err := coords.NewMap(pts)
	if err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	res, err := cluster.Cluster(len(pts), cmap.Dist, cluster.DefaultConfig())
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	topo, err := hfc.Build(cmap, res)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	cat, err := svc.NewCatalog(catSize)
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
	return topo, caps, states
}

func TestHierarchicalPathsAlwaysValidProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		topo, caps, states := randomOverlay(t, rng, 4, 10, 12)
		gen, err := svc.NewRequestGenerator(rng, caps, 2, 6)
		if err != nil {
			return false
		}
		for i := 0; i < 10; i++ {
			req, err := gen.Next()
			if err != nil {
				return false
			}
			p, err := RouteHierarchical(topo, states, req, RelaxBacktrack)
			if err != nil {
				// The only acceptable failure is a service deployed
				// nowhere, which the generator prevents.
				return false
			}
			if err := p.Validate(req, caps); err != nil {
				t.Logf("seed %d request %d: invalid path: %v", seed, i, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestHierarchicalNeverBeatsFlatOptimalProperty(t *testing.T) {
	// The flat optimum over the unconstrained embedded metric lower-bounds
	// every hierarchical path measured in the same metric.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		topo, caps, states := randomOverlay(t, rng, 3, 8, 10)
		gen, err := svc.NewRequestGenerator(rng, caps, 2, 5)
		if err != nil {
			return false
		}
		for i := 0; i < 8; i++ {
			req, err := gen.Next()
			if err != nil {
				return false
			}
			hier, err := RouteHierarchical(topo, states, req, RelaxBacktrack)
			if err != nil {
				return false
			}
			flat, err := FindPath(req, CapabilityProviders(caps), FullMetric{T: topo}, nil)
			if err != nil {
				return false
			}
			if hier.Length(topo.Dist) < flat.DecisionCost-1e-9 {
				t.Logf("seed %d: hierarchical %.3f beats flat optimum %.3f", seed, hier.Length(topo.Dist), flat.DecisionCost)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestHierarchicalMatchesHFCConstrainedOptimumOnSingleCluster(t *testing.T) {
	// When everything lives in one cluster, hierarchical routing reduces
	// to the intra-cluster flat algorithm and must be optimal, whatever the
	// cluster-level relax mode (K = 1 leaves it nothing to relax).
	rng := rand.New(rand.NewSource(5))
	topo, caps, states := randomOverlay(t, rng, 1, 12, 8)
	if topo.NumClusters() != 1 {
		t.Skip("random draw produced more than one cluster")
	}
	gen, err := svc.NewRequestGenerator(rng, caps, 2, 4)
	if err != nil {
		t.Fatalf("NewRequestGenerator: %v", err)
	}
	for i := 0; i < 20; i++ {
		req, err := gen.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		flat, err := FindPath(req, CapabilityProviders(caps), FullMetric{T: topo}, nil)
		if err != nil {
			t.Fatalf("FindPath: %v", err)
		}
		for _, mode := range relaxModes {
			hier, err := RouteHierarchical(topo, states, req, mode)
			if err != nil {
				t.Fatalf("RouteHierarchical(%v): %v", mode, err)
			}
			if math.Abs(hier.Length(topo.Dist)-flat.DecisionCost) > 1e-9 {
				t.Errorf("request %d, %v: hierarchical %.4f != flat optimum %.4f", i, mode, hier.Length(topo.Dist), flat.DecisionCost)
			}
		}
	}
}

// tieBreakFixture builds the geometry where back-tracking matters: two
// candidate middle clusters whose external links tie, but whose internal
// border-to-border distances differ drastically (the §5.1 path-1 vs path-2
// argument).
//
// Cluster 0 (source), clusters 1 and 2 (middle candidates, both provide
// "mid"), cluster 3 (destination). Cluster 1's entry and exit borders are
// far apart; cluster 2's coincide.
func tieBreakFixture(t *testing.T) (*hfc.Topology, []svc.CapabilitySet, []state.NodeState) {
	t.Helper()
	// Source cluster at the bottom, destination cluster straight above it.
	// Cluster 1 is stretched vertically: its entry border (from cluster 0)
	// and exit border (to cluster 3) are 160 apart, but its external links
	// are short (70.7 each). Cluster 2 is compact but sits farther out, so
	// its external links are long (~126 each). External-only: via cluster 1
	// = 141 beats via cluster 2 = 253. With internal distances: via cluster
	// 1 = 141+160 loses to via cluster 2 = 253+1.4.
	pts := []coords.Point{
		// Cluster 0: source side.
		{0, 0},   // 0 source proxy
		{10, 10}, // 1 border toward everything
		{-5, -5}, // 2 filler
		// Cluster 1: vertically stretched middle.
		{80, 20},  // 3 entry border (from cluster 0)
		{80, 180}, // 4 exit border (to cluster 3)
		{80, 100}, // 5 provides "mid"
		// Cluster 2: compact middle, farther out.
		{100, 100}, // 6 border toward cluster 3
		{101, 101}, // 7 provides "mid"
		{99, 99},   // 8 border toward cluster 0
		// Cluster 3: destination side.
		{10, 190}, // 9 border toward everything
		{0, 200},  // 10 destination proxy
		{-5, 205}, // 11 filler
	}
	assignment := []int{0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3}
	clusters := [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}, {9, 10, 11}}
	cmap, err := coords.NewMap(pts)
	if err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	topo, err := hfc.Build(cmap, &cluster.Result{Assignment: assignment, Clusters: clusters})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	caps := make([]svc.CapabilitySet, len(pts))
	for i := range caps {
		caps[i] = svc.NewCapabilitySet()
	}
	caps[5].Add("mid")
	caps[7].Add("mid")
	states, _, err := state.Distribute(topo, caps)
	if err != nil {
		t.Fatalf("Distribute: %v", err)
	}
	return topo, caps, states
}

func TestBacktrackConsidersInternalDistances(t *testing.T) {
	topo, caps, states := tieBreakFixture(t)
	sg, err := svc.Linear("mid")
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	req := svc.Request{Source: 0, Dest: 10, SG: sg}

	// Sanity on the geometry: the external-only route via cluster 1 is
	// strictly shorter on external links, but cluster 1's internal
	// crossing (160) dwarfs cluster 2's (1.4).
	via1 := extSum(t, topo, []int{0, 1, 3})
	via2 := extSum(t, topo, []int{0, 2, 3})
	if via1 >= via2 {
		t.Fatalf("fixture broken: external-only via cluster 1 (%v) should beat via cluster 2 (%v)", via1, via2)
	}

	rb, err := NewHierarchicalRouter(topo, states, 10, RelaxBacktrack)
	if err != nil {
		t.Fatalf("NewHierarchicalRouter: %v", err)
	}
	resB, err := rb.Route(req)
	if err != nil {
		t.Fatalf("Route backtrack: %v", err)
	}
	if resB.CSP[0].Cluster != 2 {
		t.Errorf("backtrack mapped mid to cluster %d, want 2 (small internal crossing)", resB.CSP[0].Cluster)
	}
	if err := resB.Path.Validate(req, caps); err != nil {
		t.Errorf("backtrack path invalid: %v", err)
	}

	re, err := NewHierarchicalRouter(topo, states, 10, RelaxExternalOnly)
	if err != nil {
		t.Fatalf("NewHierarchicalRouter: %v", err)
	}
	resE, err := re.Route(req)
	if err != nil {
		t.Fatalf("Route external-only: %v", err)
	}
	if resE.CSP[0].Cluster != 1 {
		t.Errorf("external-only mapped mid to cluster %d, want 1 (blind to internal distance)", resE.CSP[0].Cluster)
	}
	// The resulting concrete paths: backtrack must win end to end.
	lb := resB.Path.Length(topo.Dist)
	le := resE.Path.Length(topo.Dist)
	if lb >= le {
		t.Errorf("backtrack path length %.2f not better than external-only %.2f", lb, le)
	}
}

// extSum sums external link lengths along a cluster sequence.
func extSum(t *testing.T, topo *hfc.Topology, clusters []int) float64 {
	t.Helper()
	total := 0.0
	for i := 0; i+1 < len(clusters); i++ {
		l, err := topo.ExternalLinkLength(clusters[i], clusters[i+1])
		if err != nil {
			t.Fatalf("ExternalLinkLength: %v", err)
		}
		total += l
	}
	return total
}

func TestExactNeverWorseThanBacktrackProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		topo, _, states := randomOverlay(t, rng, 4, 8, 10)
		caps := make([]svc.CapabilitySet, 0)
		_ = caps
		gen, err := newGenFromStates(rng, states, topo)
		if err != nil {
			return true // degenerate deployment; skip
		}
		for i := 0; i < 6; i++ {
			req, err := gen.Next()
			if err != nil {
				return false
			}
			rb, err := NewHierarchicalRouter(topo, states, req.Dest, RelaxBacktrack)
			if err != nil {
				return false
			}
			resB, err := rb.Route(req)
			if err != nil {
				return false
			}
			re, err := NewHierarchicalRouter(topo, states, req.Dest, RelaxExact)
			if err != nil {
				return false
			}
			resE, err := re.Route(req)
			if err != nil {
				return false
			}
			if resE.CSPCost > resB.CSPCost+1e-9 {
				t.Logf("seed %d: exact CSP %.3f worse than backtrack %.3f", seed, resE.CSPCost, resB.CSPCost)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// newGenFromStates rebuilds a request generator from converged SCT_P state
// (the capability truth is recoverable from any node's own entry).
func newGenFromStates(rng *rand.Rand, states []state.NodeState, topo *hfc.Topology) (*svc.RequestGenerator, error) {
	caps := make([]svc.CapabilitySet, topo.N())
	for i := range caps {
		caps[i] = states[i].SCTP[slices.Index(topo.Members(topo.ClusterOf(i)), i)]
	}
	return svc.NewRequestGenerator(rng, caps, 2, 5)
}

func TestRouteRejectsWrongDestination(t *testing.T) {
	topo, _, states := tieBreakFixture(t)
	sg, err := svc.Linear("mid")
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	r, err := NewHierarchicalRouter(topo, states, 10, RelaxBacktrack)
	if err != nil {
		t.Fatalf("NewHierarchicalRouter: %v", err)
	}
	if _, err := r.Route(svc.Request{Source: 0, Dest: 9, SG: sg}); err == nil {
		t.Error("request for another destination accepted")
	}
}

func TestRouteMissingService(t *testing.T) {
	topo, _, states := tieBreakFixture(t)
	sg, err := svc.Linear("nowhere")
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	if _, err := RouteHierarchical(topo, states, svc.Request{Source: 0, Dest: 10, SG: sg}, RelaxBacktrack); !errors.Is(err, ErrNoProviders) {
		t.Errorf("err = %v, want ErrNoProviders", err)
	}
}

func TestRouterValidation(t *testing.T) {
	topo, _, states := tieBreakFixture(t)
	view, err := topo.View(10)
	if err != nil {
		t.Fatalf("View: %v", err)
	}
	solver := &LocalIntraSolver{Topo: topo, States: states}
	sg, err := svc.Linear("mid")
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	req := svc.Request{Source: 0, Dest: 10, SG: sg}
	cases := []HierarchicalRouter{
		{View: nil, State: &states[10], Intra: solver, ClusterOfSource: topo.ClusterOf},
		{View: view, State: nil, Intra: solver, ClusterOfSource: topo.ClusterOf},
		{View: view, State: &states[10], Intra: nil, ClusterOfSource: topo.ClusterOf},
		{View: view, State: &states[10], Intra: solver, ClusterOfSource: nil},
		{View: view, State: &states[10], Intra: solver, ClusterOfSource: topo.ClusterOf, Mode: RelaxMode(42)},
	}
	for i, r := range cases {
		if _, err := r.Route(req); err == nil {
			t.Errorf("invalid router %d accepted", i)
		}
	}
	// A cluster id the view's K does not cover — here the source proxy's
	// answer — is an inconsistent view/state pair, in every mode.
	for _, mode := range relaxModes {
		r := HierarchicalRouter{View: view, State: &states[10], Intra: solver, Mode: mode,
			ClusterOfSource: func(int) int { return view.NumClusters }}
		want := fmt.Sprintf("routing: cluster %d is outside the view's %d clusters", view.NumClusters, view.NumClusters)
		if _, err := r.Route(req); err == nil || err.Error() != want {
			t.Errorf("%v: out-of-range source cluster: err = %v, want %q", mode, err, want)
		}
	}
	if _, err := NewHierarchicalRouter(nil, states, 10, RelaxBacktrack); err == nil {
		t.Error("nil topology accepted")
	}
	if _, err := NewHierarchicalRouter(topo, states[:2], 10, RelaxBacktrack); err == nil {
		t.Error("short state list accepted")
	}
	if _, err := NewHierarchicalRouter(topo, states, -1, RelaxBacktrack); err == nil {
		t.Error("negative destination accepted")
	}
}

func TestLocalIntraSolverValidation(t *testing.T) {
	topo, _, states := tieBreakFixture(t)
	s := &LocalIntraSolver{Topo: topo, States: states}
	// Cross-cluster endpoints must be rejected.
	if _, err := s.SolveChild(ChildRequest{Cluster: 0, Source: 0, Dest: 5, Resolver: 1}); err == nil {
		t.Error("cross-cluster dest accepted")
	}
	if _, err := s.SolveChild(ChildRequest{Cluster: 0, Source: 5, Dest: 1, Resolver: 1}); err == nil {
		t.Error("cross-cluster source accepted")
	}
	if _, err := s.SolveChild(ChildRequest{Cluster: 0, Source: 0, Dest: 1, Resolver: 5}); err == nil {
		t.Error("cross-cluster resolver accepted")
	}
	bad := &LocalIntraSolver{Topo: nil}
	if _, err := bad.SolveChild(ChildRequest{}); err == nil {
		t.Error("nil topology accepted")
	}
	short := &LocalIntraSolver{Topo: topo, States: states[:1]}
	if _, err := short.SolveChild(ChildRequest{Cluster: 0, Source: 0, Dest: 1, Resolver: 1}); err == nil {
		t.Error("short state list accepted")
	}
}

func TestLocalIntraSolverRelayOnlyChild(t *testing.T) {
	topo, _, states := tieBreakFixture(t)
	s := &LocalIntraSolver{Topo: topo, States: states}
	p, err := s.SolveChild(ChildRequest{Cluster: 0, Source: 0, Dest: 1, Resolver: 1})
	if err != nil {
		t.Fatalf("SolveChild: %v", err)
	}
	if len(p.Hops) != 2 || p.Hops[0].Node != 0 || p.Hops[1].Node != 1 {
		t.Errorf("relay child path = %v", p)
	}
	same, err := s.SolveChild(ChildRequest{Cluster: 0, Source: 1, Dest: 1, Resolver: 1})
	if err != nil {
		t.Fatalf("SolveChild: %v", err)
	}
	if len(same.Hops) != 1 || same.DecisionCost != 0 {
		t.Errorf("same-node relay child = %v", same)
	}
}

func TestHFCMetricConsistentWithExpand(t *testing.T) {
	topo, _, _ := tieBreakFixture(t)
	m := HFCMetric{T: topo}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		u, v := rng.Intn(topo.N()), rng.Intn(topo.N())
		seq, err := m.Expand(u, v)
		if err != nil {
			t.Fatalf("Expand(%d,%d): %v", u, v, err)
		}
		// The two sum the same link lengths in different orders: equal up to
		// rounding, relative to their size.
		got, want := topo.PathLength(seq), m.Dist(u, v)
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("Dist(%d,%d) = %v but expanded length = %v", u, v, want, got)
		}
		// HFC distance dominates the direct embedded distance.
		if m.Dist(u, v) < topo.Dist(u, v)-1e-9 {
			t.Fatalf("HFC dist %v below direct %v", m.Dist(u, v), topo.Dist(u, v))
		}
	}
}

func TestRelaxModeString(t *testing.T) {
	for _, m := range []RelaxMode{RelaxBacktrack, RelaxExact, RelaxExternalOnly} {
		if m.String() == "" {
			t.Errorf("mode %d has empty String()", int(m))
		}
	}
	if RelaxMode(0).String() == "" {
		t.Error("invalid mode has empty String()")
	}
}

// TestCompactHopsInPlace: serviceless hops that repeat a neighbour's node go,
// everything else stays in order, and the result is a prefix of the argument's
// backing array — compose hands over the concatenation it has just built.
func TestCompactHopsInPlace(t *testing.T) {
	hops := []Hop{{Node: 1}, {Node: 1, Service: "a"}, {Node: 1}, {Node: 2}, {Node: 2}, {Node: 3, Service: "b"}, {Node: 3}, {Node: 4}}
	want := []Hop{{Node: 1, Service: "a"}, {Node: 2}, {Node: 3, Service: "b"}, {Node: 4}}
	got := CompactHops(hops)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("CompactHops = %v, want %v", got, want)
	}
	if &got[0] != &hops[0] {
		t.Error("CompactHops copied; it compacts in place")
	}
	if got := CompactHops(nil); len(got) != 0 {
		t.Errorf("CompactHops(nil) = %v", got)
	}
}
