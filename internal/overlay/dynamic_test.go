package overlay

import (
	"reflect"
	"testing"

	"hfc/internal/hfc"
	"hfc/internal/svc"
)

// TestCrashReelectsBorderIncrementally exercises the §4/§5 failover path on
// top of incremental HFC maintenance: crashing a primary border endpoint
// must re-elect a live pair (matching a full rebuild over live membership),
// the live views must serve the new pair, and cross-cluster routing must
// keep working without touching the crashed node.
func TestCrashReelectsBorderIncrementally(t *testing.T) {
	topo, caps := buildFixture(t, 70)
	if topo.NumClusters() < 2 {
		t.Fatal("fixture needs >= 2 clusters")
	}
	ca, cb := 0, 1
	inCa, inCb, err := topo.Border(ca, cb)
	if err != nil {
		t.Fatalf("Border: %v", err)
	}
	// Keep the destination clear of the border pair so crashing inCa cannot
	// take the destination down with it.
	src, dest := -1, -1
	for i := 0; i < topo.N(); i++ {
		if src == -1 && topo.ClusterOf(i) == ca && i != inCa {
			src = i
		}
		if dest == -1 && topo.ClusterOf(i) == cb && i != inCb {
			dest = i
		}
	}
	if src == -1 || dest == -1 {
		t.Fatal("fixture clusters too small to avoid the border pair")
	}
	unique := svc.Service("unique-dyn-failover")
	caps[dest] = caps[dest].Clone()
	caps[dest].Add(unique)

	sys := startSystem(t, topo, caps, fastFaultConfig())
	convergeRounds(t, sys, 2)
	if err := sys.Crash(inCa); err != nil {
		t.Fatalf("Crash: %v", err)
	}

	// The incremental tables must agree with a full rebuild over the live
	// membership — the equivalence contract, checked at the system level.
	ref := hfc.NewDynamic(topo)
	if err := ref.Leave(inCa); err != nil {
		t.Fatalf("reference Leave: %v", err)
	}
	if err := ref.Rebuild(); err != nil {
		t.Fatalf("reference Rebuild: %v", err)
	}
	if got, want := sys.BorderSnapshot(), ref.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("live border state %+v, rebuild says %+v", got, want)
	}

	// Every live view resolves the pair through the live table to live nodes.
	for _, n := range sys.nodes {
		if sys.IsCrashed(n.id) {
			continue
		}
		u, v, err := n.view.Border(ca, cb)
		if err != nil {
			continue
		}
		if u == inCa || v == inCa {
			t.Errorf("node %d view still serves crashed border %d", n.id, inCa)
		}
	}

	// Cross-cluster routing succeeds through the re-elected pair.
	sg, err := svc.Linear(unique)
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	res, rerr := sys.Route(svc.Request{Source: src, Dest: dest, SG: sg})
	if rerr != nil {
		t.Fatalf("Route after border crash: %v", rerr)
	}
	for _, hop := range res.Path.Hops {
		if hop.Node == inCa {
			t.Fatalf("path %v routes through crashed border %d", res.Path.Hops, inCa)
		}
	}

	// Recovery rejoins the node and restores the static election.
	if err := sys.Recover(inCa); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	gotA, gotB, err := sys.nodes[dest].view.Border(ca, cb)
	if err != nil || gotA != inCa || gotB != inCb {
		t.Errorf("after recovery Border(%d,%d) = (%d,%d,%v), want static (%d,%d)",
			ca, cb, gotA, gotB, err, inCa, inCb)
	}
}

// TestRouteCacheServesAndRevalidates is the satellite cache property: a
// repeated request is a hit; a state-round bump invalidates it (no stale
// path survives), and the re-resolved route validates against current
// capabilities.
func TestRouteCacheServesAndRevalidates(t *testing.T) {
	topo, caps := buildFixture(t, 71)
	sys := startSystem(t, topo, caps, Config{CacheRoutes: true})
	convergeRounds(t, sys, 2)

	req, err := newRequest(t, caps, 71)
	if err != nil {
		t.Fatalf("newRequest: %v", err)
	}
	first, err := sys.Route(req)
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	second, err := sys.Route(req)
	if err != nil {
		t.Fatalf("repeat Route: %v", err)
	}
	if first != second {
		t.Error("repeat route did not come from the cache")
	}
	st, ok := sys.RouteCacheStats()
	if !ok {
		t.Fatal("RouteCacheStats reports no cache despite CacheRoutes")
	}
	if st.Hits != 1 || st.Stores != 1 {
		t.Errorf("stats after repeat = %+v, want 1 hit and 1 store", st)
	}

	// A state round advances every cluster: the cached entry must NOT be
	// served again, and the fresh resolution must be valid now.
	sys.TriggerStateRound()
	sys.Quiesce()
	third, err := sys.Route(req)
	if err != nil {
		t.Fatalf("Route after state round: %v", err)
	}
	if third == first {
		t.Error("stale cached route survived a state-round bump")
	}
	if err := third.Path.Validate(req, sys.Capabilities()); err != nil {
		t.Errorf("re-resolved route invalid: %v", err)
	}
	st2, _ := sys.RouteCacheStats()
	if st2.Hits != st.Hits+0 && st2.Invalidations < 1 {
		t.Errorf("stats after bump = %+v, expected an invalidation, no new hit", st2)
	}
	if st2.Invalidations < 1 {
		t.Errorf("Invalidations = %d after state-round bump, want >= 1", st2.Invalidations)
	}

	// The fresh entry serves hits again.
	fourth, err := sys.Route(req)
	if err != nil {
		t.Fatalf("fourth Route: %v", err)
	}
	if fourth != third {
		t.Error("route after re-store did not come from the cache")
	}
}

// TestRouteCacheInvalidatedByCapabilityChange checks the per-cluster path:
// updating a capability bumps only that node's cluster, which must evict
// exactly the cached routes that traverse it.
func TestRouteCacheInvalidatedByCapabilityChange(t *testing.T) {
	topo, caps := buildFixture(t, 72)
	sys := startSystem(t, topo, caps, Config{CacheRoutes: true})
	convergeRounds(t, sys, 2)

	req, err := newRequest(t, caps, 72)
	if err != nil {
		t.Fatalf("newRequest: %v", err)
	}
	first, err := sys.Route(req)
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	// Touch a node on the cached path: its cluster is stamped on the entry.
	onPath := first.Path.Hops[0].Node
	set := sys.capsOf(onPath).Clone()
	set.Add("cache-buster")
	if err := sys.UpdateCapability(onPath, set); err != nil {
		t.Fatalf("UpdateCapability: %v", err)
	}
	again, err := sys.Route(req)
	if err != nil {
		t.Fatalf("Route after capability change: %v", err)
	}
	if again == first {
		t.Error("cached route survived a capability change on its own path")
	}
	st, _ := sys.RouteCacheStats()
	if st.Invalidations < 1 {
		t.Errorf("Invalidations = %d, want >= 1", st.Invalidations)
	}
}

func TestRouteCacheAbsentWhenDisabled(t *testing.T) {
	topo, caps := buildFixture(t, 73)
	sys := startSystem(t, topo, caps, Config{})
	if _, ok := sys.RouteCacheStats(); ok {
		t.Error("RouteCacheStats reports a cache without CacheRoutes")
	}
	convergeRounds(t, sys, 2)
	req, err := newRequest(t, caps, 73)
	if err != nil {
		t.Fatalf("newRequest: %v", err)
	}
	a, err := sys.Route(req)
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	b, err := sys.Route(req)
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	if a == b {
		t.Error("identical result pointer without a cache — routes must be recomputed")
	}
}
