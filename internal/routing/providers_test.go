package routing

import (
	"reflect"
	"testing"

	"hfc/internal/state"
	"hfc/internal/svc"
)

// testNodeState builds a NodeState whose cluster members hold the given
// capability sets and whose SCT_C covers the given cluster aggregates.
func testNodeState(members []int, memberCaps []svc.CapabilitySet, aggregates []svc.CapabilitySet) *state.NodeState {
	st := &state.NodeState{
		SCTP: make(map[int]svc.CapabilitySet),
		SCTC: make(map[int]svc.CapabilitySet),
	}
	for i, m := range members {
		st.SCTP[m] = memberCaps[i]
	}
	for c, agg := range aggregates {
		st.SCTC[c] = agg
	}
	return st
}

func TestProviderIndexMatchesScan(t *testing.T) {
	members := []int{3, 7, 11, 20}
	memberCaps := []svc.CapabilitySet{
		svc.NewCapabilitySet("a", "b"),
		svc.NewCapabilitySet("b", "c"),
		svc.NewCapabilitySet("a", "c", "d"),
		svc.NewCapabilitySet("b"),
	}
	aggregates := []svc.CapabilitySet{
		svc.NewCapabilitySet("a", "b", "c", "d"),
		svc.NewCapabilitySet("c"),
		svc.NewCapabilitySet("a", "d"),
	}
	st := testNodeState(members, memberCaps, aggregates)
	pi := BuildProviderIndex(st, members)

	for _, s := range []svc.Service{"a", "b", "c", "d", "missing"} {
		// Reference: the scan SolveChild used to run per service.
		var want []int
		for _, m := range members {
			if set, ok := st.SCTP[m]; ok && set.Has(s) {
				want = append(want, m)
			}
		}
		if got := pi.Providers(s); !reflect.DeepEqual(got, want) {
			t.Errorf("Providers(%q) = %v, want %v", s, got, want)
		}
		if got, want := pi.ClustersProviding(s), st.ClustersProviding(s); !reflect.DeepEqual(got, want) {
			t.Errorf("ClustersProviding(%q) = %v, want %v", s, got, want)
		}
	}

	// An SCT_C that is not full (a recovered proxy's holds its own cluster
	// only): the index and the state walk the same keys.
	recovered := &state.NodeState{SCTC: map[int]svc.CapabilitySet{2: aggregates[2]}}
	pi = BuildProviderIndex(recovered, nil)
	for _, s := range []svc.Service{"a", "c", "d"} {
		if got, want := pi.ClustersProviding(s), recovered.ClustersProviding(s); !reflect.DeepEqual(got, want) {
			t.Errorf("sparse SCT_C: index ClustersProviding(%q) = %v, state says %v", s, got, want)
		}
	}
	if got := recovered.ClustersProviding("a"); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("sparse SCT_C: ClustersProviding(a) = %v, want [2]", got)
	}
}

func TestProviderIndexLookupAllocFree(t *testing.T) {
	members := []int{0, 1, 2}
	caps := []svc.CapabilitySet{
		svc.NewCapabilitySet("a", "b"),
		svc.NewCapabilitySet("a"),
		svc.NewCapabilitySet("b"),
	}
	st := testNodeState(members, caps, []svc.CapabilitySet{svc.NewCapabilitySet("a", "b")})
	pi := BuildProviderIndex(st, members)
	fn := pi.ProviderFunc()
	if allocs := testing.AllocsPerRun(100, func() {
		if len(fn("a")) != 2 {
			t.Fatal("wrong provider count")
		}
	}); allocs != 0 {
		t.Errorf("indexed provider lookup allocates %.1f times per call, want 0", allocs)
	}
}

func TestLazyIndexesRebuildOnVersionBump(t *testing.T) {
	members := []int{0, 1}
	states := []state.NodeState{
		*testNodeState(members, []svc.CapabilitySet{svc.NewCapabilitySet("a"), svc.NewCapabilitySet("b")},
			[]svc.CapabilitySet{svc.NewCapabilitySet("a", "b")}),
		*testNodeState(members, []svc.CapabilitySet{svc.NewCapabilitySet("a"), svc.NewCapabilitySet("b")},
			[]svc.CapabilitySet{svc.NewCapabilitySet("a", "b")}),
	}
	var version uint64
	li := NewLazyIndexes(states, func(int) []int { return members }, func() uint64 { return version })

	first := li.For(1)
	if second := li.For(1); second != first {
		t.Fatal("index rebuilt without a version bump")
	}

	// Mutate node 1's state, bump the version: For must rebuild and see it.
	states[1].SCTP[0].Add("c")
	version++
	rebuilt := li.For(1)
	if rebuilt == first {
		t.Fatal("index not rebuilt after version bump")
	}
	if got := rebuilt.Providers("c"); len(got) != 1 || got[0] != 0 {
		t.Fatalf("rebuilt Providers(c) = %v, want [0]", got)
	}

	li.InvalidateAll()
	if li.For(1) == rebuilt {
		t.Fatal("InvalidateAll kept a cached index")
	}
}

// TestLazyIndexesSharedPerTable pins the cache to the tables, not the nodes:
// members of one cluster (one SCT_P, one SCT_C) get the same index, another
// cluster's index shares the clusters half, and an in-place edit with a
// version bump still rebuilds.
func TestLazyIndexesSharedPerTable(t *testing.T) {
	sctc := map[int]svc.CapabilitySet{0: svc.NewCapabilitySet("a", "b"), 1: svc.NewCapabilitySet("b")}
	sctp0 := map[int]svc.CapabilitySet{0: svc.NewCapabilitySet("a"), 1: svc.NewCapabilitySet("b")}
	sctp1 := map[int]svc.CapabilitySet{2: svc.NewCapabilitySet("b")}
	states := []state.NodeState{
		{Node: 0, SCTP: sctp0, SCTC: sctc},
		{Node: 1, SCTP: sctp0, SCTC: sctc},
		{Node: 2, SCTP: sctp1, SCTC: sctc},
	}
	members := [][]int{{0, 1}, {0, 1}, {2}}
	var version uint64
	li := NewLazyIndexes(states, func(n int) []int { return members[n] }, func() uint64 { return version })

	a, b, c := li.For(0), li.For(1), li.For(2)
	if a != b {
		t.Error("two members of one cluster got different indexes")
	}
	if c == a {
		t.Fatal("another cluster got the first cluster's index")
	}
	if got := c.Providers("b"); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("cluster 1 Providers(b) = %v, want [2]", got)
	}
	if &a.ClustersProviding("b")[0] != &c.ClustersProviding("b")[0] {
		t.Error("two clusters over one SCT_C did not share the clusters half")
	}

	sctc[1].Add("a")
	version++
	if again := li.For(0); again == a {
		t.Error("index not rebuilt after version bump")
	} else if got := again.ClustersProviding("a"); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("rebuilt ClustersProviding(a) = %v, want [0 1]", got)
	}
	if li.For(1) != li.For(0) {
		t.Error("members stopped sharing after the rebuild")
	}
}
