package serve_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"hfc/internal/env"
	"hfc/internal/routing"
	"hfc/internal/serve"
	"hfc/internal/state"
	"hfc/internal/svc"
)

// TestNewEngineBoundary: the tables are indexed by member rank and cluster id
// inside every resolve and every update, so NewEngine takes only states shaped
// like the topology — each malformed input is an error naming the node and the
// table, none a panic in a later Resolve.
func TestNewEngineBoundary(t *testing.T) {
	fw, _, caps := buildEngine(t, 21, 40, serve.Config{})
	topo := fw.Topology()
	set := svc.NewCapabilitySet("x")
	longer := func(table []svc.CapabilitySet) []svc.CapabilitySet {
		return append(append([]svc.CapabilitySet(nil), table...), set)
	}
	type input struct {
		states []state.NodeState
		caps   []svc.CapabilitySet
		relax  routing.RelaxMode
	}
	for _, tc := range []struct {
		name    string
		mutate  func(in *input)
		wantErr string // "" means NewEngine must accept
	}{
		{"as distributed", func(in *input) {}, ""},
		{"one state short", func(in *input) { in.states = in.states[:39] }, "39 states for 40 nodes"},
		{"one capability set short", func(in *input) { in.caps = in.caps[:39] }, "39 capability sets for 40 nodes"},
		{"SCT_P one slot longer than the cluster", func(in *input) { in.states[7].SCTP = longer(in.states[7].SCTP) }, "node 7: SCT_P"},
		{"SCT_P one slot short", func(in *input) { in.states[7].SCTP = in.states[7].SCTP[:len(in.states[7].SCTP)-1] }, "node 7: SCT_P"},
		{"SCT_P nil", func(in *input) { in.states[0].SCTP = nil }, "node 0: SCT_P"},
		{"SCT_C one slot longer than K", func(in *input) { in.states[39].SCTC = longer(in.states[39].SCTC) }, "node 39: SCT_C"},
		{"SCT_C one slot short", func(in *input) { in.states[39].SCTC = in.states[39].SCTC[:topo.NumClusters()-1] }, "node 39: SCT_C"},
		{"two states swapped", func(in *input) { in.states[3], in.states[4] = in.states[4], in.states[3] }, "states[3] is the state of node 4"},
		{"relax mode -1", func(in *input) { in.relax = -1 }, "unknown relax mode -1"},
		{"relax mode past the last", func(in *input) { in.relax = routing.RelaxExternalOnly + 1 }, "unknown relax mode 4"},
		{"an unlearned entry", func(in *input) {
			// A hole is a value of the table (a proxy just recovered), not a shape error.
			in.states[5].SCTP = append([]svc.CapabilitySet(nil), in.states[5].SCTP...)
			in.states[5].SCTP[0] = nil
		}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := input{append([]state.NodeState(nil), fw.States()...), append([]svc.CapabilitySet(nil), caps...), 0}
			tc.mutate(&in)
			eng, err := serve.NewEngine(topo, in.caps, in.states, serve.Config{Relax: in.relax})
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("NewEngine: %v", err)
				}
				// What NewEngine accepts, resolves survive.
				for _, req := range requestPool(t, eng, in.caps, 23, 40) {
					if _, err := eng.Resolve(req); err != nil {
						t.Fatalf("Resolve: %v", err)
					}
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("NewEngine: err = %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}

// aggregatePreservingUpdate finds a proxy and a new set for it that leave its
// cluster's aggregate as it is: the proxy drops a service another member of
// the cluster also offers.
func aggregatePreservingUpdate(t *testing.T, eng *serve.Engine) (node int, set svc.CapabilitySet) {
	t.Helper()
	topo, caps := eng.Topology(), eng.Capabilities()
	for node := 0; node < topo.N(); node++ {
		others := svc.NewCapabilitySet()
		for _, p := range topo.Members(topo.ClusterOf(node)) {
			if p != node {
				others.UnionInto(caps[p])
			}
		}
		for _, s := range caps[node].Sorted() {
			if others.Has(s) {
				set := caps[node].Clone()
				delete(set, s)
				return node, set
			}
		}
	}
	t.Fatal("no proxy offers a service a cluster mate also offers")
	return 0, nil
}

// TestUpdateKeepsUntouchedIndexes: an update that leaves its cluster's
// aggregate alone replaces one SCT_P and nothing else, so the provider index
// of every proxy outside the cluster is the pointer it was and the index
// inside the cluster is a new one that knows the change; an update that moves
// the aggregate replaces the SCT_C under every index and still re-inverts no
// SCT_P but its own cluster's.
func TestUpdateKeepsUntouchedIndexes(t *testing.T) {
	_, eng, _ := buildEngine(t, 21, 120, serve.Config{})
	topo := eng.Topology()
	indexes := func() []*routing.ProviderIndex {
		out := make([]*routing.ProviderIndex, topo.N())
		for d := range out {
			out[d] = eng.IndexFor(d)
		}
		return out
	}
	before := indexes()
	k := topo.NumClusters()
	if local, clusters := eng.IndexHalves(); local != k || clusters != 1 {
		t.Fatalf("cached halves = %d local, %d clusters; want %d and 1", local, clusters, k)
	}

	node, set := aggregatePreservingUpdate(t, eng)
	c := topo.ClusterOf(node)
	oldSCTC := &eng.States()[node].SCTC[0]
	if err := eng.UpdateCapability(node, set); err != nil {
		t.Fatalf("UpdateCapability: %v", err)
	}
	if &eng.States()[node].SCTC[0] != oldSCTC {
		t.Fatal("the update was meant to preserve the aggregate and replaced the SCT_C")
	}
	if local, clusters := eng.IndexHalves(); local != k-1 || clusters != 1 {
		t.Errorf("after the update: cached halves = %d local, %d clusters; want %d and 1", local, clusters, k-1)
	}
	after := indexes()
	for d := range after {
		if inCluster := topo.ClusterOf(d) == c; (after[d] != before[d]) != inCluster {
			t.Errorf("proxy %d (cluster %d, updated cluster %d): index replaced = %v", d, topo.ClusterOf(d), c, !inCluster)
		}
	}
	for _, s := range eng.Capabilities()[node].Sorted() {
		if !reflect.DeepEqual(eng.IndexFor(node).Providers(s), scanProviders(eng, c, s)) {
			t.Errorf("the rebuilt index lists %v for %q, the tables say %v", eng.IndexFor(node).Providers(s), s, scanProviders(eng, c, s))
		}
	}

	// A service new to the whole overlay: the aggregate moves.
	before = after
	grown := set.Clone()
	grown.Add("brand-new")
	if err := eng.UpdateCapability(node, grown); err != nil {
		t.Fatalf("UpdateCapability: %v", err)
	}
	if local, clusters := eng.IndexHalves(); local != k-1 || clusters != 0 {
		t.Errorf("after the aggregate moved: cached halves = %d local, %d clusters; want %d and 0", local, clusters, k-1)
	}
	for d, was := range before {
		pi := eng.IndexFor(d)
		if pi == was {
			t.Fatalf("proxy %d still gets an index over the replaced SCT_C", d)
		}
		if got := pi.ClustersProviding("brand-new"); !reflect.DeepEqual(got, []int{c}) {
			t.Fatalf("proxy %d: ClustersProviding(brand-new) = %v, want [%d]", d, got, c)
		}
	}
	if local, clusters := eng.IndexHalves(); local != k || clusters != 1 {
		t.Errorf("cached halves = %d local, %d clusters; want %d and 1", local, clusters, k)
	}
}

// scanProviders lists cluster c's providers of s from the engine's tables.
func scanProviders(eng *serve.Engine, c int, s svc.Service) []int {
	members := eng.Topology().Members(c)
	var out []int
	for r, set := range eng.States()[members[0]].SCTP {
		if set.Has(s) {
			out = append(out, members[r])
		}
	}
	return out
}

// TestIndexHalvesStayBounded: nothing but Forget drops a half, so an update
// path that forgot to call it would keep every replaced table and its
// inversion (≈ 10 kB an update). 1000 updates with resolves between them: never
// more than K local halves and one clusters half, and the live heap of the
// second 500 updates is that of the first.
func TestIndexHalvesStayBounded(t *testing.T) {
	_, eng, caps := buildEngine(t, 21, 120, serve.Config{})
	topo := eng.Topology()
	pool := requestPool(t, eng, caps, 31, 64)
	cat, err := svc.NewCatalog(12)
	if err != nil {
		t.Fatalf("NewCatalog: %v", err)
	}
	rng := rand.New(rand.NewSource(32))
	live := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	var half uint64
	for i := 0; i < 1000; i++ {
		fresh, err := svc.RandomCapabilities(rng, 1, cat, 2, 5)
		if err != nil {
			t.Fatalf("RandomCapabilities: %v", err)
		}
		if err := eng.UpdateCapability(rng.Intn(topo.N()), fresh[0]); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		for _, req := range pool {
			if _, err := eng.Resolve(req); err != nil {
				t.Fatalf("Resolve after update %d: %v", i, err)
			}
		}
		if local, clusters := eng.IndexHalves(); local > topo.NumClusters() || clusters > 1 {
			t.Fatalf("after update %d: %d local and %d clusters halves cached for %d clusters", i, local, clusters, topo.NumClusters())
		}
		if i == 499 {
			half = live()
		}
	}
	end := live()
	t.Logf("live heap after 500 updates %d B, after 1000 %d B", half, end)
	if raceDetector() {
		return // the detector's shadow allocations are in HeapAlloc
	}
	if grown := int64(end) - int64(half); grown > 256<<10 {
		t.Errorf("live heap grew %d B over 500 updates; a half kept per update is ≈ 10 kB each", grown)
	}
}

// updateAllocBudget is what one UpdateCapability may allocate, whatever the
// overlay's size. A set is a Go map: two objects up to eight services (the
// map and its one group), four beyond (map, directory, table, groups) when
// made at its final size. So: the engine's copy of the new set (2), the
// cluster's new SCT_P (1), the one set cloned into it (2), the recomputed
// aggregate, sized by the old one (4) and, when the aggregate moved, the new
// SCT_C (1). The cache sweeps allocate nothing.
const updateAllocBudget = 10

// TestUpdateCapabilityAllocBudget is the point of the per-cluster update: the
// same handful of objects at 200 proxies and at 800, where a full
// state.Distribute took one Clone per proxy.
func TestUpdateCapabilityAllocBudget(t *testing.T) {
	for _, proxies := range []int{200, 800} {
		spec := env.SmallSpec(42)
		spec.PhysicalNodes, spec.Proxies = 1200, proxies
		e, err := env.Build(spec)
		if err != nil {
			t.Fatalf("env.Build: %v", err)
		}
		fw := e.Framework
		eng, err := serve.NewEngine(fw.Topology(), fw.Capabilities(), fw.States(), serve.Config{})
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		// Proxy 0 alternates between its set and that set plus a service
		// nobody else offers: every call changes the deployment and moves the
		// aggregate, the dearer of the two cases.
		sets := [2]svc.CapabilitySet{fw.Capabilities()[0], fw.Capabilities()[0]}
		sets[1].Add("only-here")
		i := 0
		allocs := testing.AllocsPerRun(100, func() {
			if err := eng.UpdateCapability(0, sets[i%2]); err != nil {
				t.Fatalf("UpdateCapability: %v", err)
			}
			i++
		})
		t.Logf("%d proxies, %d clusters: an update allocates %v objects", proxies, fw.Topology().NumClusters(), allocs)
		if allocs > updateAllocBudget {
			t.Errorf("%d proxies: an update allocates %v objects, want <= %d", proxies, allocs, updateAllocBudget)
		}
	}
}

// TestCachedEqualsFreshAfterEveryUpdate: whatever the engine answers from its
// cache after an update, an engine built from scratch over the same deployment
// must answer too. Invalidating only the updated cluster's routes is exact
// while that cluster's aggregate stands — same SCT_C, same cluster-level path,
// and a route that avoids the cluster re-solves the same children — and wrong
// once it moves: a request's cluster-level search reads SCT_C for the services
// its graph names, so a cached route that never touched the cluster may now
// lose to one through it if its graph names a service the aggregate gained or
// lost. Every other route is spared, and the test counts them.
func TestCachedEqualsFreshAfterEveryUpdate(t *testing.T) {
	_, eng, caps := buildEngine(t, 21, 120, serve.Config{})
	topo := eng.Topology()
	pool := requestPool(t, eng, caps, 231, 300)
	for _, req := range pool {
		if _, err := eng.Resolve(req); err != nil {
			t.Fatalf("Resolve: %v", err)
		}
	}
	cat, err := svc.NewCatalog(12)
	if err != nil {
		t.Fatalf("NewCatalog: %v", err)
	}
	rng := rand.New(rand.NewSource(232))
	moved, differ, spared := 0, 0, int64(0)
	for u := 0; u < 40; u++ {
		set, err := svc.RandomCapabilities(rng, 1, cat, 2, 5)
		if err != nil {
			t.Fatalf("RandomCapabilities: %v", err)
		}
		node := rng.Intn(topo.N())
		sctc := &eng.States()[0].SCTC[0]
		if err := eng.UpdateCapability(node, set[0]); err != nil {
			t.Fatalf("update %d: %v", u, err)
		}
		aggregateMoved := &eng.States()[0].SCTC[0] != sctc
		if aggregateMoved {
			moved++
		}
		now := eng.Capabilities()
		states, _, err := state.Distribute(topo, now)
		if err != nil {
			t.Fatalf("Distribute: %v", err)
		}
		fresh, err := serve.NewEngine(topo, now, states, serve.Config{})
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		// The whole pool was resolved before the update, so a hit is a route
		// the update left fresh.
		hits := eng.Stats().Cache.Hits
		for i, req := range pool {
			got, gotErr := eng.Resolve(req)
			want, wantErr := fresh.Resolve(req)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("update %d, request %d: engine err %v, fresh engine err %v", u, i, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if got.DecisionCost != want.DecisionCost || !reflect.DeepEqual(got.Hops, want.Hops) {
				differ++
				t.Errorf("update %d (node %d, cluster %d, aggregate moved: %v), request %d: served %v (cost %v), a fresh engine answers %v (cost %v)",
					u, node, topo.ClusterOf(node), aggregateMoved, i, got.Hops, got.DecisionCost, want.Hops, want.DecisionCost)
			}
		}
		if aggregateMoved {
			spared += eng.Stats().Cache.Hits - hits
		}
	}
	if moved == 0 {
		t.Fatal("no update of the sequence moved an aggregate: the test exercises nothing")
	}
	t.Logf("%d of 40 updates moved an aggregate and spared %d of %d cached routes; %d of %d answers differed from a fresh engine's",
		moved, spared, moved*len(pool), differ, 40*len(pool))
	if spared == 0 {
		t.Error("no update that moved an aggregate left a cached route fresh: every one re-missed the whole pool")
	}
}

// TestCachedEqualsFreshAfterAvailabilityChange is the same check across
// availability changes: every proxy in turn is taken down and brought back
// up, and after each transition every answer is held to an engine built from
// scratch with the same proxies unavailable (checkAnswer). Staling the
// proxy's cluster alone is exact while the cluster's border pairs stand, and
// wrong once Leave or Rejoin re-elects one: every request's cluster-level
// search crosses clusters at those pairs, so a cached route that avoids the
// cluster may now lose to one through it.
func TestCachedEqualsFreshAfterAvailabilityChange(t *testing.T) {
	seeds := []int64{21, 31, 41}
	if testing.Short() || raceDetector() {
		seeds = seeds[:1] // one goroutine: the detector has nothing to add per seed
	}
	for _, seed := range seeds {
		fw, eng, caps := buildEngine(t, seed, 120, serve.Config{})
		topo := eng.Topology()
		pool := requestPool(t, eng, caps, seed+210, 300)
		// All up, the reference never changes: one engine answers for every
		// recovery.
		up, _ := freshEngine(t, topo, caps, nil)
		compared := 0
		check := func(ref *serve.Engine, what string) {
			for i, req := range pool {
				if eng.IsUnavailable(req.Dest) {
					continue
				}
				got, gotErr := eng.ResolveDetailed(req)
				want, wantErr := ref.ResolveDetailed(req)
				if err := checkAnswer(eng, caps, req, got, gotErr, want, wantErr); err != nil {
					t.Fatalf("seed %d, %s, request %d: %v", seed, what, i, err)
				}
				compared++
			}
		}
		check(up, "before any change")
		for node := 0; node < topo.N(); node++ {
			if err := eng.SetUnavailable(node, true); err != nil {
				t.Fatalf("SetUnavailable(%d, true): %v", node, err)
			}
			down, err := serve.NewEngine(topo, caps, fw.States(), serve.Config{})
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			if err := down.SetUnavailable(node, true); err != nil {
				t.Fatalf("reference SetUnavailable(%d, true): %v", node, err)
			}
			check(down, fmt.Sprintf("proxy %d down", node))
			if err := eng.SetUnavailable(node, false); err != nil {
				t.Fatalf("SetUnavailable(%d, false): %v", node, err)
			}
			check(up, fmt.Sprintf("proxy %d back up", node))
		}
		t.Logf("seed %d: %d answers held to a fresh engine's", seed, compared)
	}
}
