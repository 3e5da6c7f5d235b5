package state

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"hfc/internal/cluster"
	"hfc/internal/coords"
	"hfc/internal/hfc"
	"hfc/internal/svc"
)

// fixture builds a 3-cluster HFC topology with 3+2+4 nodes and a known
// capability assignment.
func fixture(t *testing.T) (*hfc.Topology, []svc.CapabilitySet) {
	t.Helper()
	pts := []coords.Point{
		{0, 0}, {1, 0}, {2, 0}, // cluster 0: nodes 0-2
		{100, 0}, {101, 0}, // cluster 1: nodes 3-4
		{0, 100}, {1, 100}, {2, 100}, {3, 100}, // cluster 2: nodes 5-8
	}
	assignment := []int{0, 0, 0, 1, 1, 2, 2, 2, 2}
	clusters := [][]int{{0, 1, 2}, {3, 4}, {5, 6, 7, 8}}
	cmap, err := coords.NewMap(pts)
	if err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	topo, err := hfc.Build(cmap, &cluster.Result{Assignment: assignment, Clusters: clusters})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	caps := []svc.CapabilitySet{
		svc.NewCapabilitySet("s1"),
		svc.NewCapabilitySet("s2", "s3"),
		svc.NewCapabilitySet("s1", "s4"),
		svc.NewCapabilitySet("s5"),
		svc.NewCapabilitySet("s2"),
		svc.NewCapabilitySet("s6"),
		svc.NewCapabilitySet("s6", "s7"),
		svc.NewCapabilitySet("s1"),
		svc.NewCapabilitySet("s8"),
	}
	return topo, caps
}

func TestDistributeConverges(t *testing.T) {
	topo, caps := fixture(t)
	states, _, err := Distribute(topo, caps)
	if err != nil {
		t.Fatalf("Distribute: %v", err)
	}
	if err := VerifyConvergence(topo, caps, states); err != nil {
		t.Fatalf("VerifyConvergence: %v", err)
	}
}

func TestDistributeMessageCounts(t *testing.T) {
	topo, caps := fixture(t)
	_, stats, err := Distribute(topo, caps)
	if err != nil {
		t.Fatalf("Distribute: %v", err)
	}
	// Local: Σ |C|(|C|-1) = 3·2 + 2·1 + 4·3 = 20.
	if stats.LocalMessages != 20 {
		t.Errorf("LocalMessages = %d, want 20", stats.LocalMessages)
	}
	// Aggregate: one per directed cluster pair = 3·2 = 6.
	if stats.AggregateMessages != 6 {
		t.Errorf("AggregateMessages = %d, want 6", stats.AggregateMessages)
	}
	// Forwards: per received aggregate, |C|-1 forwards. Each cluster
	// receives k-1 = 2 aggregates: 2·(3-1) + 2·(2-1) + 2·(4-1) = 12.
	if stats.ForwardMessages != 12 {
		t.Errorf("ForwardMessages = %d, want 12", stats.ForwardMessages)
	}
	if stats.Total() != 38 {
		t.Errorf("Total = %d, want 38", stats.Total())
	}
}

func TestServiceStateSize(t *testing.T) {
	topo, caps := fixture(t)
	states, _, err := Distribute(topo, caps)
	if err != nil {
		t.Fatalf("Distribute: %v", err)
	}
	// Fig. 9(b): |own cluster| + number of clusters.
	wantByCluster := map[int]int{0: 3 + 3, 1: 2 + 3, 2: 4 + 3}
	for i := range states {
		want := wantByCluster[topo.ClusterOf(i)]
		if got := states[i].ServiceStateSize(); got != want {
			t.Errorf("node %d ServiceStateSize = %d, want %d", i, got, want)
		}
	}
}

func TestLocalEntriesAndClustersProviding(t *testing.T) {
	topo, caps := fixture(t)
	states, _, err := Distribute(topo, caps)
	if err != nil {
		t.Fatalf("Distribute: %v", err)
	}
	// Node 0 (cluster 0) sees node 2's s4 locally.
	if !states[0].SCTP[2].Has("s4") {
		t.Error("node 0 does not see s4 on node 2")
	}
	// Node 0's SCT_P has a slot per member of its own cluster and no more.
	if len(states[0].SCTP) != 3 {
		t.Errorf("node 0 has %d SCT_P slots for a cluster of 3", len(states[0].SCTP))
	}
	// s1 is available in clusters 0 (nodes 0,2) and 2 (node 7).
	got := states[4].ClustersProviding("s1")
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("ClustersProviding(s1) = %v, want [0 2]", got)
	}
	// s5 only in cluster 1.
	got = states[0].ClustersProviding("s5")
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("ClustersProviding(s5) = %v, want [1]", got)
	}
	if got := states[0].ClustersProviding("nope"); len(got) != 0 {
		t.Errorf("ClustersProviding(nope) = %v, want empty", got)
	}
	// A full table costs nothing beyond the result slice.
	if allocs := testing.AllocsPerRun(100, func() { states[0].ClustersProviding("s5") }); allocs != 1 {
		t.Errorf("ClustersProviding on a full table allocates %.0f times, want 1", allocs)
	}
}

// TestClustersProvidingSparseTable covers an SCT_C that is not full: a proxy
// just back from Recover knows its own cluster only, and a table still
// filling up has gaps. Every learned entry counts, wherever it sits, and an
// unlearned one is never touched.
func TestClustersProvidingSparseTable(t *testing.T) {
	table := func(k int, learned map[int]svc.CapabilitySet) []svc.CapabilitySet {
		out := make([]svc.CapabilitySet, k)
		for c, set := range learned {
			out[c] = set
		}
		return out
	}
	recovered := NodeState{SCTC: table(8, map[int]svc.CapabilitySet{2: svc.NewCapabilitySet("s1")})}
	if got := recovered.ClustersProviding("s1"); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("own cluster only: ClustersProviding(s1) = %v, want [2]", got)
	}
	if got := recovered.ServiceStateSize(); got != 1 {
		t.Errorf("own cluster only: ServiceStateSize = %d, want 1 (learned entries, not slots)", got)
	}
	filling := NodeState{SCTC: table(8, map[int]svc.CapabilitySet{
		0: svc.NewCapabilitySet("s1"),
		7: svc.NewCapabilitySet("s1", "s2"),
		3: svc.NewCapabilitySet("s1"),
		5: svc.NewCapabilitySet("s2"),
	})}
	if got := filling.ClustersProviding("s1"); !reflect.DeepEqual(got, []int{0, 3, 7}) {
		t.Errorf("gaps: ClustersProviding(s1) = %v, want [0 3 7]", got)
	}
	if got := filling.ClustersProviding("s2"); !reflect.DeepEqual(got, []int{5, 7}) {
		t.Errorf("gaps: ClustersProviding(s2) = %v, want [5 7]", got)
	}
	if got := (&NodeState{}).ClustersProviding("s1"); got != nil {
		t.Errorf("no table: ClustersProviding(s1) = %v, want none", got)
	}
}

func TestDistributeValidation(t *testing.T) {
	topo, caps := fixture(t)
	if _, _, err := Distribute(nil, caps); err == nil {
		t.Error("nil topology accepted")
	}
	if _, _, err := Distribute(topo, caps[:3]); err == nil {
		t.Error("short capability list accepted")
	}
	bad := append([]svc.CapabilitySet(nil), caps...)
	bad[2] = nil
	if _, _, err := Distribute(topo, bad); err == nil {
		t.Error("nil capability set accepted")
	}
}

func TestDistributeIsolation(t *testing.T) {
	// Mutating returned state must not corrupt the input capabilities.
	topo, caps := fixture(t)
	states, _, err := Distribute(topo, caps)
	if err != nil {
		t.Fatalf("Distribute: %v", err)
	}
	states[0].SCTP[0].Add("injected")
	states[0].SCTC[0].Add("injected2")
	if caps[0].Has("injected") || caps[0].Has("injected2") {
		t.Error("node state aliases input capability sets")
	}
}

func TestVerifyConvergenceDetectsCorruption(t *testing.T) {
	topo, caps := fixture(t)
	states, _, err := Distribute(topo, caps)
	if err != nil {
		t.Fatalf("Distribute: %v", err)
	}
	states[3].SCTC[0].Add("bogus")
	if err := VerifyConvergence(topo, caps, states); err == nil {
		t.Error("corrupted SCT_C passed verification")
	}
	states, _, err = Distribute(topo, caps)
	if err != nil {
		t.Fatalf("Distribute: %v", err)
	}
	states[5].SCTP[1] = nil // node 6, rank 1 of cluster 2
	if err := VerifyConvergence(topo, caps, states); err == nil {
		t.Error("missing SCT_P entry passed verification")
	}
	if err := VerifyConvergence(topo, caps, states[:2]); err == nil {
		t.Error("short state list passed verification")
	}
	// What a node knows is the entries it has learned, not the slots it
	// has: a full-length SCT_C with one cluster unlearned is not converged,
	// and neither is a table cut short.
	states, _, err = Distribute(topo, caps)
	if err != nil {
		t.Fatalf("Distribute: %v", err)
	}
	full := states[3].SCTC
	states[3].SCTC = []svc.CapabilitySet{full[0], full[1], nil}
	if err := VerifyConvergence(topo, caps, states); err == nil {
		t.Error("unlearned SCT_C entry passed verification")
	}
	states[3].SCTC = full[:2]
	if err := VerifyConvergence(topo, caps, states); err == nil {
		t.Error("short SCT_C passed verification")
	}
}

func TestFlatStateSize(t *testing.T) {
	if FlatStateSize(1000) != 1000 {
		t.Error("FlatStateSize(1000) != 1000")
	}
}

func TestDistributeSingleCluster(t *testing.T) {
	pts := []coords.Point{{0, 0}, {1, 0}, {2, 0}}
	cmap, err := coords.NewMap(pts)
	if err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	topo, err := hfc.Build(cmap, &cluster.Result{Assignment: []int{0, 0, 0}, Clusters: [][]int{{0, 1, 2}}})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	caps := []svc.CapabilitySet{
		svc.NewCapabilitySet("a"),
		svc.NewCapabilitySet("b"),
		svc.NewCapabilitySet("c"),
	}
	states, stats, err := Distribute(topo, caps)
	if err != nil {
		t.Fatalf("Distribute: %v", err)
	}
	if stats.AggregateMessages != 0 || stats.ForwardMessages != 0 {
		t.Errorf("single cluster produced inter-cluster traffic: %+v", stats)
	}
	if err := VerifyConvergence(topo, caps, states); err != nil {
		t.Fatalf("VerifyConvergence: %v", err)
	}
}

func TestDistributeLargeRandomConvergesProperty(t *testing.T) {
	// Random clusterable point set end-to-end through the real clustering.
	rng := rand.New(rand.NewSource(77))
	var pts []coords.Point
	for c := 0; c < 5; c++ {
		for i := 0; i < 12; i++ {
			pts = append(pts, coords.Point{float64(c)*300 + rng.Float64()*20, float64(c%2)*300 + rng.Float64()*20})
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
	cat, err := svc.NewCatalog(20)
	if err != nil {
		t.Fatalf("NewCatalog: %v", err)
	}
	caps, err := svc.RandomCapabilities(rng, len(pts), cat, 2, 6)
	if err != nil {
		t.Fatalf("RandomCapabilities: %v", err)
	}
	states, stats, err := Distribute(topo, caps)
	if err != nil {
		t.Fatalf("Distribute: %v", err)
	}
	if err := VerifyConvergence(topo, caps, states); err != nil {
		t.Fatalf("VerifyConvergence: %v", err)
	}
	if stats.LocalMessages == 0 {
		t.Error("no local messages recorded")
	}
}

// blobTopology builds k well-separated clusters of per proxies each, with
// a 40-service catalogue and 4–10 services per proxy (the benchmark's
// deployment).
func blobTopology(t *testing.T, k, per int) (*hfc.Topology, []svc.CapabilitySet) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(k*per) + 1))
	res := &cluster.Result{Clusters: make([][]int, k)}
	var pts []coords.Point
	for c := 0; c < k; c++ {
		for i := 0; i < per; i++ {
			res.Clusters[c] = append(res.Clusters[c], len(pts))
			res.Assignment = append(res.Assignment, c)
			pts = append(pts, coords.Point{float64(c%16)*1000 + rng.Float64()*20, float64(c/16)*1000 + rng.Float64()*20})
		}
	}
	cmap, err := coords.NewMap(pts)
	if err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	topo, err := hfc.Build(cmap, res)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	cat, err := svc.NewCatalog(40)
	if err != nil {
		t.Fatalf("NewCatalog: %v", err)
	}
	caps, err := svc.RandomCapabilities(rng, len(pts), cat, 4, 10)
	if err != nil {
		t.Fatalf("RandomCapabilities: %v", err)
	}
	return topo, caps
}

// TestDistributeAllocsLinear pins Distribute to one table per cluster plus
// one for the system: its allocation count is linear in n + K (it was one
// set clone per (receiver, origin) and per (receiver, cluster): ~230 000 at
// n = 1000), and a run at the benchmark's protocol-sim size (4000 proxies,
// 66 clusters) stays within 10 MiB.
func TestDistributeAllocsLinear(t *testing.T) {
	for _, size := range []struct{ k, per int }{{37, 27}, {66, 61}} {
		topo, caps := blobTopology(t, size.k, size.per)
		n, k := topo.N(), topo.NumClusters()
		var states []NodeState
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		//hfcvet:ignore detrand the wall time is logged, never asserted
		start := time.Now()
		allocs := testing.AllocsPerRun(1, func() { states, _, err = Distribute(topo, caps) })
		// AllocsPerRun(1, f) calls f twice: one warm-up, one measured.
		elapsed := time.Since(start) / 2
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("Distribute: %v", err)
		}
		if err := VerifyConvergence(topo, caps, states); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		mib := float64(after.TotalAlloc-before.TotalAlloc) / 2 / (1 << 20)
		t.Logf("n=%d K=%d: %.0f allocs, %.2f MiB, ~%v per Distribute", n, k, allocs, mib, elapsed)
		if limit := float64(4*n + 8*k); allocs > limit {
			t.Errorf("n=%d K=%d: Distribute allocates %.0f times, want at most 4n+8K = %.0f", n, k, allocs, limit)
		}
		if mib > 10 {
			t.Errorf("n=%d K=%d: Distribute allocates %.1f MiB, want at most 10", n, k, mib)
		}
	}
}
