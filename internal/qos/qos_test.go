package qos

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"hfc/internal/cluster"
	"hfc/internal/coords"
	"hfc/internal/hfc"
	"hfc/internal/routing"
	"hfc/internal/state"
	"hfc/internal/svc"
)

func TestRandomLoads(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	loads, err := RandomLoads(rng, 100, 0.1, 0.9)
	if err != nil {
		t.Fatalf("RandomLoads: %v", err)
	}
	for i, l := range loads {
		if l < 0.1 || l >= 0.9 {
			t.Errorf("load[%d] = %v outside [0.1,0.9)", i, l)
		}
	}
	if _, err := RandomLoads(nil, 5, 0, 0.5); err == nil {
		t.Error("nil rng accepted")
	}
	if _, err := RandomLoads(rng, 0, 0, 0.5); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := RandomLoads(rng, 5, 0.5, 0.2); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := RandomLoads(rng, 5, 0.5, 1.5); err == nil {
		t.Error("range beyond 1 accepted")
	}
}

func TestProfileValidate(t *testing.T) {
	bw := func(u, v int) (float64, error) { return 100, nil }
	good := &Profile{Load: []float64{0.1, 0.2}, Bandwidth: bw}
	if err := good.Validate(2); err != nil {
		t.Errorf("good profile rejected: %v", err)
	}
	var nilProf *Profile
	if err := nilProf.Validate(2); err == nil {
		t.Error("nil profile accepted")
	}
	if err := (&Profile{Load: []float64{0.1}, Bandwidth: bw}).Validate(2); err == nil {
		t.Error("short load vector accepted")
	}
	if err := (&Profile{Load: []float64{0.1, 1.0}, Bandwidth: bw}).Validate(2); err == nil {
		t.Error("load 1.0 accepted")
	}
	if err := (&Profile{Load: []float64{0.1, -0.2}, Bandwidth: bw}).Validate(2); err == nil {
		t.Error("negative load accepted")
	}
	if err := (&Profile{Load: []float64{0.1, 0.2}}).Validate(2); err == nil {
		t.Error("nil bandwidth accepted")
	}
}

func TestConstraintsValidation(t *testing.T) {
	if (Constraints{}).maxLoad() != 1 {
		t.Error("zero MaxLoad should mean no constraint")
	}
	if err := (Constraints{MinBandwidth: -1}).validate(); err == nil {
		t.Error("negative bandwidth accepted")
	}
	if err := (Constraints{MaxLoad: 1.5}).validate(); err == nil {
		t.Error("load > 1 accepted")
	}
}

// lineFixture: five proxies on a line; node i has load loads[i]; bandwidth
// between u and v is bws[u][v].
func lineProfile(loads []float64, bws [][]float64) *Profile {
	return &Profile{
		Load: loads,
		Bandwidth: func(u, v int) (float64, error) {
			return bws[u][v], nil
		},
	}
}

func symmetricBW(n int, def float64) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		for j := range out[i] {
			if i != j {
				out[i][j] = def
			}
		}
	}
	return out
}

func TestFindPathLoadPruning(t *testing.T) {
	// Two providers of x: node 1 (near, overloaded) and node 3 (far, ok).
	pts := []coords.Point{{0, 0}, {5, 0}, {10, 0}, {5, 8}}
	oracle := routing.OracleFunc(func(u, v int) float64 { return coords.Dist(pts[u], pts[v]) })
	caps := []svc.CapabilitySet{
		svc.NewCapabilitySet(),
		svc.NewCapabilitySet("x"),
		svc.NewCapabilitySet(),
		svc.NewCapabilitySet("x"),
	}
	prof := lineProfile([]float64{0.1, 0.9, 0.1, 0.2}, symmetricBW(4, 1000))
	sg, err := svc.Linear("x")
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	req := svc.Request{Source: 0, Dest: 2, SG: sg}

	// Unconstrained: overloaded node 1 wins on distance.
	p, err := FindPath(req, routing.CapabilityProviders(caps), oracle, prof, Constraints{}, nil)
	if err != nil {
		t.Fatalf("FindPath: %v", err)
	}
	if p.Hops[1].Node != 1 {
		t.Errorf("unconstrained path used node %d, want 1", p.Hops[1].Node)
	}

	// MaxLoad 0.5: node 1 pruned, node 3 chosen.
	p, err = FindPath(req, routing.CapabilityProviders(caps), oracle, prof, Constraints{MaxLoad: 0.5}, nil)
	if err != nil {
		t.Fatalf("FindPath constrained: %v", err)
	}
	if p.Hops[1].Node != 3 {
		t.Errorf("constrained path used node %d, want 3", p.Hops[1].Node)
	}
	if err := VerifyPath(p, prof, Constraints{MaxLoad: 0.5}); err != nil {
		t.Errorf("VerifyPath: %v", err)
	}

	// MaxLoad 0.05: nothing qualifies.
	if _, err := FindPath(req, routing.CapabilityProviders(caps), oracle, prof, Constraints{MaxLoad: 0.05}, nil); !errors.Is(err, routing.ErrNoProviders) {
		t.Errorf("err = %v, want ErrNoProviders", err)
	}
}

func TestFindPathBandwidthPruning(t *testing.T) {
	pts := []coords.Point{{0, 0}, {5, 0}, {10, 0}, {5, 8}}
	oracle := routing.OracleFunc(func(u, v int) float64 { return coords.Dist(pts[u], pts[v]) })
	caps := []svc.CapabilitySet{
		svc.NewCapabilitySet(),
		svc.NewCapabilitySet("x"),
		svc.NewCapabilitySet(),
		svc.NewCapabilitySet("x"),
	}
	bws := symmetricBW(4, 1000)
	// Starve the links touching node 1.
	for _, other := range []int{0, 2, 3} {
		bws[1][other] = 5
		bws[other][1] = 5
	}
	prof := lineProfile([]float64{0.1, 0.1, 0.1, 0.1}, bws)
	sg, err := svc.Linear("x")
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	req := svc.Request{Source: 0, Dest: 2, SG: sg}
	p, err := FindPath(req, routing.CapabilityProviders(caps), oracle, prof, Constraints{MinBandwidth: 50}, nil)
	if err != nil {
		t.Fatalf("FindPath: %v", err)
	}
	if p.Hops[1].Node != 3 {
		t.Errorf("path used starved node %d, want 3", p.Hops[1].Node)
	}
	if err := VerifyPath(p, prof, Constraints{MinBandwidth: 50}); err != nil {
		t.Errorf("VerifyPath: %v", err)
	}
	// Demanding more than any link offers: infeasible.
	if _, err := FindPath(req, routing.CapabilityProviders(caps), oracle, prof, Constraints{MinBandwidth: 5000}, nil); !errors.Is(err, routing.ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestFindPathValidation(t *testing.T) {
	prof := lineProfile([]float64{0.1}, symmetricBW(1, 10))
	sg, err := svc.Linear("x")
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	req := svc.Request{Source: 0, Dest: 0, SG: sg}
	oracle := routing.OracleFunc(func(u, v int) float64 { return 0 })
	if _, err := FindPath(req, nil, oracle, prof, Constraints{}, nil); err == nil {
		t.Error("nil providers accepted")
	}
	if _, err := FindPath(req, routing.CapabilityProviders(nil), oracle, nil, Constraints{}, nil); err == nil {
		t.Error("nil profile accepted")
	}
	if _, err := FindPath(req, routing.CapabilityProviders(nil), oracle, prof, Constraints{MinBandwidth: -2}, nil); err == nil {
		t.Error("bad constraints accepted")
	}
}

// bruteForceQoS enumerates provider assignments under the constraints.
func bruteForceQoS(req svc.Request, provs routing.ProviderFunc, oracle routing.Oracle, prof *Profile, cons Constraints) float64 {
	services := req.SG.Services
	best := math.Inf(1)
	hopOK := func(u, v int) bool {
		if u == v || cons.MinBandwidth == 0 {
			return true
		}
		bw, err := prof.Bandwidth(u, v)
		return err == nil && bw >= cons.MinBandwidth
	}
	var rec func(idx, prev int, cost float64)
	rec = func(idx, prev int, cost float64) {
		if cost >= best {
			return
		}
		if idx == len(services) {
			if !hopOK(prev, req.Dest) {
				return
			}
			total := cost
			if prev != req.Dest {
				total += oracle.Dist(prev, req.Dest)
			}
			if total < best {
				best = total
			}
			return
		}
		for _, p := range provs(services[idx]) {
			if prof.Load[p] > cons.maxLoad() || !hopOK(prev, p) {
				continue
			}
			step := 0.0
			if p != prev {
				step = oracle.Dist(prev, p)
			}
			rec(idx+1, p, cost+step)
		}
	}
	rec(0, req.Source, 0)
	return best
}

func TestFindPathMatchesBruteForceProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(8)
		pts := make([]coords.Point, n)
		for i := range pts {
			pts[i] = coords.Point{rng.Float64() * 100, rng.Float64() * 100}
		}
		oracle := routing.OracleFunc(func(u, v int) float64 { return coords.Dist(pts[u], pts[v]) })
		cat, err := svc.NewCatalog(4)
		if err != nil {
			return false
		}
		caps, err := svc.RandomCapabilities(rng, n, cat, 1, 3)
		if err != nil {
			return false
		}
		loads, err := RandomLoads(rng, n, 0, 0.99)
		if err != nil {
			return false
		}
		bws := symmetricBW(n, 0)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				bw := 10 + rng.Float64()*90
				bws[i][j] = bw
				bws[j][i] = bw
			}
		}
		prof := lineProfile(loads, bws)
		gen, err := svc.NewRequestGenerator(rng, caps, 2, 3)
		if err != nil {
			return true // random deployment too thin for the length range
		}
		req, err := gen.Next()
		if err != nil {
			return false
		}
		cons := Constraints{MaxLoad: 0.3 + rng.Float64()*0.7, MinBandwidth: rng.Float64() * 60}
		provs := routing.CapabilityProviders(caps)
		p, err := FindPath(req, provs, oracle, prof, cons, nil)
		want := bruteForceQoS(req, provs, oracle, prof, cons)
		if err != nil {
			// Both must agree the request is infeasible.
			return math.IsInf(want, 1)
		}
		if err := VerifyPath(p, prof, cons); err != nil {
			return false
		}
		return math.Abs(p.DecisionCost-want) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// hierFixture builds a 3-cluster manual topology with converged state and a
// controllable QoS profile.
func hierFixture(t *testing.T, loads []float64, bws [][]float64) (*hfc.Topology, []svc.CapabilitySet, []state.NodeState, *Profile) {
	t.Helper()
	pts := []coords.Point{
		{0, 0}, {4, 0}, {2, 3}, // cluster 0 (nodes 0-2); source side
		{100, 0}, {104, 0}, {102, 3}, // cluster 1 (nodes 3-5); middle
		{200, 0}, {204, 0}, {202, 3}, // cluster 2 (nodes 6-8); dest side
	}
	assignment := []int{0, 0, 0, 1, 1, 1, 2, 2, 2}
	clusters := [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}}
	cmap, err := coords.NewMap(pts)
	if err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	topo, err := hfc.Build(cmap, &cluster.Result{Assignment: assignment, Clusters: clusters})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	caps := []svc.CapabilitySet{
		svc.NewCapabilitySet(),    // 0 source
		svc.NewCapabilitySet(),    // 1
		svc.NewCapabilitySet(),    // 2
		svc.NewCapabilitySet("a"), // 3
		svc.NewCapabilitySet("a"), // 4
		svc.NewCapabilitySet("b"), // 5
		svc.NewCapabilitySet("b"), // 6
		svc.NewCapabilitySet(),    // 7 dest
		svc.NewCapabilitySet(),    // 8
	}
	states, _, err := state.Distribute(topo, caps)
	if err != nil {
		t.Fatalf("Distribute: %v", err)
	}
	return topo, caps, states, lineProfile(loads, bws)
}

func uniformLoads(n int, l float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = l
	}
	return out
}

func TestAggregateContents(t *testing.T) {
	loads := uniformLoads(9, 0.2)
	loads[3] = 0.8 // the worse "a" provider in cluster 1
	loads[4] = 0.3 // the better one
	bws := symmetricBW(9, 500)
	bws[3][5], bws[5][3] = 40, 40 // a thin intra-cluster pair in cluster 1
	topo, caps, _, prof := hierFixture(t, loads, bws)
	agg, err := Aggregate(topo, caps, prof)
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	if got := agg.Clusters[1].MinLoadPerService["a"]; got != 0.3 {
		t.Errorf("cluster 1 min load for a = %v, want 0.3", got)
	}
	if got := agg.Clusters[1].BandwidthFloor; got != 40 {
		t.Errorf("cluster 1 bandwidth floor = %v, want 40", got)
	}
	if got := agg.Clusters[0].BandwidthFloor; got != 500 {
		t.Errorf("cluster 0 bandwidth floor = %v, want 500", got)
	}
	// External links all at 500.
	for pair, bw := range agg.ExternalBandwidth {
		if bw != 500 {
			t.Errorf("external link %v bandwidth = %v, want 500", pair, bw)
		}
	}
	// Admissibility: cluster 1 admits "a" at MaxLoad 0.5 (best is 0.3) but
	// not at 0.2.
	if !agg.ClusterAdmissible(topo, "a", 1, Constraints{MaxLoad: 0.5}, PolicyPessimistic) {
		t.Error("cluster 1 rejected for a at MaxLoad 0.5")
	}
	if agg.ClusterAdmissible(topo, "a", 1, Constraints{MaxLoad: 0.25}, PolicyPessimistic) {
		t.Error("cluster 1 admitted for a at MaxLoad 0.25")
	}
	// Bandwidth floor blocks cluster 1 above 40.
	if agg.ClusterAdmissible(topo, "a", 1, Constraints{MinBandwidth: 100}, PolicyPessimistic) {
		t.Error("cluster 1 admitted despite floor 40 < 100")
	}
	if !agg.ClusterAdmissible(topo, "a", 1, Constraints{MinBandwidth: 30}, PolicyPessimistic) {
		t.Error("cluster 1 rejected despite floor 40 >= 30")
	}
	// Unknown service.
	if agg.ClusterAdmissible(topo, "zzz", 1, Constraints{}, PolicyPessimistic) {
		t.Error("cluster admitted for unknown service")
	}
	if agg.ClusterAdmissible(topo, "a", 99, Constraints{}, PolicyPessimistic) {
		t.Error("out-of-range cluster admitted")
	}
	if !agg.CrossingAdmissible(0, 1, Constraints{MinBandwidth: 400}) {
		t.Error("crossing rejected at 400 <= 500")
	}
	if agg.CrossingAdmissible(0, 1, Constraints{MinBandwidth: 600}) {
		t.Error("crossing admitted at 600 > 500")
	}
}

func TestRouterSatisfiesConstraints(t *testing.T) {
	loads := uniformLoads(9, 0.2)
	loads[3] = 0.9 // push requests onto node 4 for service a
	bws := symmetricBW(9, 500)
	topo, caps, states, prof := hierFixture(t, loads, bws)
	r, err := NewRouter(topo, states, caps, prof)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	sg, err := svc.Linear("a", "b")
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	req := svc.Request{Source: 0, Dest: 7, SG: sg}
	cons := Constraints{MaxLoad: 0.5, MinBandwidth: 100}
	p, err := r.Route(req, cons)
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	if err := p.Validate(req, caps); err != nil {
		t.Fatalf("path invalid: %v", err)
	}
	if err := VerifyPath(p, prof, cons); err != nil {
		t.Fatalf("constraints violated: %v", err)
	}
	// Node 3 (overloaded) must not serve a.
	for _, h := range p.Hops {
		if h.Service == "a" && h.Node == 3 {
			t.Error("overloaded node 3 chosen for a")
		}
	}
}

func TestRouterConservativeFalseBlocking(t *testing.T) {
	// Cluster 1's floor is dragged down by one thin pair (3,5), but the
	// actual path a→(4) never uses it. Flat QoS succeeds; hierarchical
	// blocks: the documented cost of pessimistic aggregation.
	loads := uniformLoads(9, 0.2)
	bws := symmetricBW(9, 500)
	bws[3][5], bws[5][3] = 10, 10
	topo, caps, states, prof := hierFixture(t, loads, bws)

	sg, err := svc.Linear("a")
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	req := svc.Request{Source: 0, Dest: 7, SG: sg}
	cons := Constraints{MinBandwidth: 100}

	flat, err := FindPath(req, routing.CapabilityProviders(caps),
		routing.OracleFunc(routing.HFCMetric{T: topo}.Dist), prof, cons, routing.HFCMetric{T: topo})
	if err != nil {
		t.Fatalf("flat QoS route failed: %v", err)
	}
	if err := VerifyPath(flat, prof, cons); err != nil {
		t.Fatalf("flat path violates constraints: %v", err)
	}

	r, err := NewRouter(topo, states, caps, prof)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	r.Policy = PolicyPessimistic
	if _, err := r.Route(req, cons); err == nil {
		t.Error("pessimistic hierarchical route succeeded despite floor 10 < 100 (expected false blocking)")
	}

	// The optimistic policy admits the cluster (ceiling 500 >= 100) and the
	// exact child solving finds the real path avoiding the thin pair.
	opt, err := NewRouter(topo, states, caps, prof)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	p, err := opt.Route(req, cons)
	if err != nil {
		t.Fatalf("optimistic hierarchical route failed: %v", err)
	}
	if err := VerifyPath(p, prof, cons); err != nil {
		t.Fatalf("optimistic path violates constraints: %v", err)
	}
}

func TestRouterNeverFalseAdmitsProperty(t *testing.T) {
	// Whatever the random profile, a hierarchical success always satisfies
	// the true constraints — aggregation must never lie optimistically
	// about bandwidth floors or per-service loads.
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		loads, err := RandomLoads(rng, 9, 0, 0.99)
		if err != nil {
			return false
		}
		bws := symmetricBW(9, 0)
		for i := 0; i < 9; i++ {
			for j := i + 1; j < 9; j++ {
				bw := 10 + rng.Float64()*490
				bws[i][j] = bw
				bws[j][i] = bw
			}
		}
		topo, caps, states, prof := hierFixture(t, loads, bws)
		r, err := NewRouter(topo, states, caps, prof)
		if err != nil {
			return false
		}
		if rng.Intn(2) == 0 {
			r.Policy = PolicyPessimistic
		}
		sg, err := svc.Linear("a", "b")
		if err != nil {
			return false
		}
		req := svc.Request{Source: 0, Dest: 7, SG: sg}
		cons := Constraints{MaxLoad: 0.2 + rng.Float64()*0.8, MinBandwidth: rng.Float64() * 300}
		p, err := r.Route(req, cons)
		if err != nil {
			return true // blocking is always allowed
		}
		return VerifyPath(p, prof, cons) == nil && p.Validate(req, caps) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRouterValidation(t *testing.T) {
	loads := uniformLoads(9, 0.2)
	topo, caps, states, prof := hierFixture(t, loads, symmetricBW(9, 100))
	if _, err := NewRouter(nil, states, caps, prof); err == nil {
		t.Error("nil topology accepted")
	}
	if _, err := NewRouter(topo, states[:2], caps, prof); err == nil {
		t.Error("short states accepted")
	}
	if _, err := NewRouter(topo, states, caps[:2], prof); err == nil {
		t.Error("short caps accepted")
	}
	r, err := NewRouter(topo, states, caps, prof)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	sg, err := svc.Linear("a")
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	if _, err := r.Route(svc.Request{Source: 0, Dest: 99, SG: sg}, Constraints{}); err == nil {
		t.Error("invalid request accepted")
	}
	if _, err := r.Route(svc.Request{Source: 0, Dest: 7, SG: sg}, Constraints{MaxLoad: 2}); err == nil {
		t.Error("invalid constraints accepted")
	}
	if r.Aggregates() == nil {
		t.Error("Aggregates() returned nil")
	}
}

// TestRelayOnlyChildHonoursBandwidth: a child with no service to place still
// lays one overlay hop, and that hop answers to MinBandwidth like any other.
// Here the source cluster only relays (0 → its border 1) over a pair under
// the bound; the optimistic router must fail the request at that child with
// routing.ErrInfeasible, not compose a path its own VerifyPath then rejects.
func TestRelayOnlyChildHonoursBandwidth(t *testing.T) {
	bws := symmetricBW(9, 500)
	bws[0][1], bws[1][0] = 10, 10
	topo, caps, states, prof := hierFixture(t, uniformLoads(9, 0.2), bws)
	if inA, _, err := topo.Border(0, 1); err != nil || inA != 1 {
		t.Fatalf("Border(0,1) = %d, %v; the fixture wants cluster 0 to leave through node 1", inA, err)
	}
	r, err := NewRouter(topo, states, caps, prof)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	sg, err := svc.Linear("a")
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	req := svc.Request{Source: 0, Dest: 7, SG: sg}
	_, err = r.Route(req, Constraints{MinBandwidth: 100})
	if !errors.Is(err, routing.ErrInfeasible) {
		t.Fatalf("Route over a 10 Mbps relay hop under MinBandwidth 100: %v, want routing.ErrInfeasible", err)
	}
	if strings.Contains(err.Error(), "internal error") {
		t.Fatalf("Route: %v", err)
	}
	// The same hop is fine for a request that asks for less.
	p, err := r.Route(req, Constraints{MinBandwidth: 10})
	if err != nil {
		t.Fatalf("Route at MinBandwidth 10: %v", err)
	}
	if p.Hops[0].Node != 0 || p.Hops[1].Node != 1 {
		t.Fatalf("path %v does not leave cluster 0 through its border 1", p)
	}
}
