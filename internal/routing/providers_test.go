package routing

import (
	"errors"
	"reflect"
	"testing"

	"hfc/internal/state"
	"hfc/internal/svc"
)

// testNodeState builds a NodeState whose cluster members hold the given
// capability sets and whose SCT_C covers the given cluster aggregates.
func testNodeState(members []int, memberCaps []svc.CapabilitySet, aggregates []svc.CapabilitySet) *state.NodeState {
	if len(memberCaps) != len(members) {
		panic("testNodeState: one capability set per member")
	}
	return &state.NodeState{SCTP: memberCaps, SCTC: aggregates}
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
		for r, m := range members {
			if st.SCTP[r].Has(s) {
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

	// Tables that are not full (a proxy just back from Recover has learned
	// its own SCT_P and SCT_C entries only): the index, the state and a child
	// solve walk the same learned entries and step over the rest.
	recovered := &state.NodeState{
		SCTP: []svc.CapabilitySet{nil, nil, memberCaps[2], nil},
		SCTC: []svc.CapabilitySet{nil, nil, aggregates[2]},
	}
	pi = BuildProviderIndex(recovered, members)
	for _, s := range []svc.Service{"a", "c", "d"} {
		if got, want := pi.ClustersProviding(s), recovered.ClustersProviding(s); !reflect.DeepEqual(got, want) {
			t.Errorf("sparse SCT_C: index ClustersProviding(%q) = %v, state says %v", s, got, want)
		}
		if got := pi.Providers(s); !reflect.DeepEqual(got, []int{11}) {
			t.Errorf("sparse SCT_P: index Providers(%q) = %v, want [11]", s, got)
		}
	}
	if got := recovered.ClustersProviding("a"); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("sparse SCT_C: ClustersProviding(a) = %v, want [2]", got)
	}
	if got := pi.Providers("b"); got != nil {
		t.Errorf("sparse SCT_P: index Providers(b) = %v, want none (its providers are not learned yet)", got)
	}
	solve := IntraSolve{Members: members, SCTP: recovered.SCTP, Oracle: OracleFunc(func(u, v int) float64 { return 1 })}
	child := ChildRequest{Cluster: 2, Resolver: 11, Source: 3, Dest: 20, Services: []svc.Service{"a", "d"}}
	path, err := solve.Solve(child)
	if err != nil {
		t.Fatalf("child solve over a recovered SCT_P: %v", err)
	}
	for _, h := range path.Hops {
		if h.Service != "" && h.Node != 11 {
			t.Errorf("child solve placed %q on %d, want the one learned provider 11", h.Service, h.Node)
		}
	}
	child.Services = []svc.Service{"b"}
	if _, err := solve.Solve(child); !errors.Is(err, ErrNoProviders) {
		t.Errorf("child solve for an unlearned service: err = %v, want ErrNoProviders", err)
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
}

// TestLazyIndexesSharedPerTable pins the cache to the tables, not the nodes:
// members of one cluster (one SCT_P, one SCT_C) get the same index, another
// cluster's index shares the clusters half, and an in-place edit with a
// version bump still rebuilds.
func TestLazyIndexesSharedPerTable(t *testing.T) {
	sctc := []svc.CapabilitySet{svc.NewCapabilitySet("a", "b"), svc.NewCapabilitySet("b")}
	sctp0 := []svc.CapabilitySet{svc.NewCapabilitySet("a"), svc.NewCapabilitySet("b")}
	sctp1 := []svc.CapabilitySet{svc.NewCapabilitySet("b")}
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

// TestForgetDropsOnlyThatTable: with no version, a half lives until its table
// is forgotten — replacing one cluster's SCT_P and forgetting the old one
// rebuilds that cluster's index over the kept clusters half and leaves the
// other cluster's index the pointer it was; forgetting the SCT_C drops every
// index, and the local halves survive it.
func TestForgetDropsOnlyThatTable(t *testing.T) {
	sctc := []svc.CapabilitySet{svc.NewCapabilitySet("a", "b"), svc.NewCapabilitySet("b")}
	sctp0 := []svc.CapabilitySet{svc.NewCapabilitySet("a"), svc.NewCapabilitySet("b")}
	sctp1 := []svc.CapabilitySet{svc.NewCapabilitySet("b")}
	states := []state.NodeState{
		{Node: 0, SCTP: sctp0, SCTC: sctc},
		{Node: 1, SCTP: sctp0, SCTC: sctc},
		{Node: 2, SCTP: sctp1, SCTC: sctc},
	}
	members := [][]int{{0, 1}, {0, 1}, {2}}
	li := NewLazyIndexes(states, func(n int) []int { return members[n] }, nil)
	halves := func() [2]int {
		local, clusters := li.Len()
		return [2]int{local, clusters}
	}

	a, c := li.For(0), li.For(2)
	if got := halves(); got != [2]int{2, 1} {
		t.Fatalf("cached halves = %v, want 2 local and 1 clusters", got)
	}

	// Cluster 0's SCT_P is replaced (node 1 gains "c"), the SCT_C stays.
	replaced := []svc.CapabilitySet{sctp0[0], svc.NewCapabilitySet("b", "c")}
	states[0].SCTP, states[1].SCTP = replaced, replaced
	li.Forget(sctp0)
	if got := halves(); got != [2]int{1, 1} {
		t.Fatalf("after Forget(SCT_P): cached halves = %v, want 1 local and 1 clusters", got)
	}
	again := li.For(0)
	if again == a {
		t.Fatal("the forgotten table's index is still served")
	}
	if got := again.Providers("c"); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("rebuilt Providers(c) = %v, want [1]", got)
	}
	if li.For(1) != again {
		t.Error("members of the updated cluster do not share the rebuilt index")
	}
	if li.For(2) != c {
		t.Error("Forget(SCT_P of cluster 0) replaced cluster 1's index")
	}
	if &again.ClustersProviding("b")[0] != &a.ClustersProviding("b")[0] {
		t.Error("the rebuilt index did not keep the cached clusters half")
	}

	// The SCT_C is replaced (cluster 0's aggregate gains "c").
	fresh := []svc.CapabilitySet{svc.NewCapabilitySet("a", "b", "c"), sctc[1]}
	for i := range states {
		states[i].SCTC = fresh
	}
	li.Forget(sctc)
	if got := halves(); got != [2]int{2, 0} {
		t.Fatalf("after Forget(SCT_C): cached halves = %v, want 2 local and 0 clusters", got)
	}
	moved := li.For(2)
	if moved == c {
		t.Fatal("an index over the forgotten SCT_C is still served")
	}
	if got := moved.ClustersProviding("c"); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("ClustersProviding(c) = %v, want [0]", got)
	}
	if &moved.Providers("b")[0] != &c.Providers("b")[0] {
		t.Error("Forget(SCT_C) dropped a local half")
	}
	if got := halves(); got != [2]int{2, 1} {
		t.Errorf("cached halves = %v, want 2 local and 1 clusters", got)
	}

	// A table nothing was inverted from: nothing to drop.
	li.Forget([]svc.CapabilitySet{svc.NewCapabilitySet("z")})
	li.Forget(nil)
	if li.For(2) != moved {
		t.Error("forgetting an unknown table dropped an index")
	}
}
