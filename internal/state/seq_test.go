package state

import (
	"reflect"
	"testing"

	"hfc/internal/svc"
)

// tracked builds an editable state the way a proxy of the overlay runtime
// sizes one: a slot per cluster member and per cluster, rounds tracked.
func tracked(members, k int) NodeState {
	return NodeState{
		SCTP: make([]svc.CapabilitySet, members),
		SCTC: make([]svc.CapabilitySet, k),
		Seq:  make([]uint64, members+k),
	}
}

func TestApplyLocalRejectsStaleFlood(t *testing.T) {
	st := tracked(4, 3)
	if !st.ApplyLocal(3, 5, svc.NewCapabilitySet("fresh")) {
		t.Fatal("first flood rejected")
	}
	// A delayed flood from an earlier round must not overwrite.
	if st.ApplyLocal(3, 4, svc.NewCapabilitySet("stale")) {
		t.Error("stale flood (round 4 after round 5) accepted")
	}
	if !st.SCTP[3].Has("fresh") || st.SCTP[3].Has("stale") {
		t.Errorf("SCTP[3] = %v after stale flood, want the round-5 entry", st.SCTP[3])
	}
	// A same-round arrival is a replay — only one authentic flood exists
	// per (origin, round) — and must not reinstall.
	if st.ApplyLocal(3, 5, svc.NewCapabilitySet("replayed")) {
		t.Error("same-round replay accepted")
	}
	if st.SCTP[3].Has("replayed") {
		t.Errorf("SCTP[3] = %v after same-round replay, want the original round-5 entry", st.SCTP[3])
	}
	// A newer round replaces.
	if !st.ApplyLocal(3, 6, svc.NewCapabilitySet("newer")) {
		t.Error("newer flood rejected")
	}
	if !st.SCTP[3].Has("newer") {
		t.Errorf("SCTP[3] = %v, want round-6 entry", st.SCTP[3])
	}
}

func TestApplyAggregateRejectsStale(t *testing.T) {
	st := tracked(4, 3)
	if !st.ApplyAggregate(1, 2, svc.NewCapabilitySet("a")) {
		t.Fatal("first aggregate rejected")
	}
	if st.ApplyAggregate(1, 1, svc.NewCapabilitySet("old")) {
		t.Error("stale aggregate accepted")
	}
	if !st.SCTC[1].Has("a") {
		t.Errorf("SCTC[1] = %v, want round-2 aggregate", st.SCTC[1])
	}
	// Seq tracking is per origin: a different cluster's round-1 message
	// is not stale.
	if !st.ApplyAggregate(2, 1, svc.NewCapabilitySet("b")) {
		t.Error("unrelated cluster's aggregate rejected")
	}
}

func TestVerifyConvergenceExceptSkipsCrashed(t *testing.T) {
	topo, caps := fixture(t)
	states, _, err := Distribute(topo, caps)
	if err != nil {
		t.Fatalf("Distribute: %v", err)
	}
	// Freeze node 1 as crashed: wipe its state entirely. Strict
	// verification must fail, the crash-aware check must pass.
	states[1] = NodeState{Node: 1}
	if err := VerifyConvergence(topo, caps, states); err == nil {
		t.Fatal("strict check passed with a wiped node")
	}
	crashed := func(n int) bool { return n == 1 }
	if err := VerifyConvergenceExcept(topo, caps, states, crashed); err != nil {
		t.Fatalf("crash-aware check failed: %v", err)
	}

	// A live node missing the crashed member's SCT_P entry is still fine
	// (a recovered node re-learns only from live floods)...
	states[0].SCTP[1] = nil
	if err := VerifyConvergenceExcept(topo, caps, states, crashed); err != nil {
		t.Fatalf("crash-aware check failed with missing crashed-member entry: %v", err)
	}
	// ...but a live member's entry is mandatory and must be exact.
	states[0].SCTP[2] = svc.NewCapabilitySet("wrong")
	if err := VerifyConvergenceExcept(topo, caps, states, crashed); err == nil {
		t.Fatal("wrong live-member entry accepted")
	}
}

func TestVerifyConvergenceExceptBracketsAggregates(t *testing.T) {
	topo, caps := fixture(t)
	states, _, err := Distribute(topo, caps)
	if err != nil {
		t.Fatalf("Distribute: %v", err)
	}
	crashed := func(n int) bool { return n == 1 } // cluster 0 member
	// Node 3 (cluster 1) holding only cluster 0's live aggregate — as if
	// it re-learned through a border that recovered after the crash — is
	// acceptable.
	live := svc.Union(caps[0], caps[2])
	states[3].SCTC[0] = live.Clone()
	if err := VerifyConvergenceExcept(topo, caps, states, crashed); err != nil {
		t.Fatalf("live-only aggregate rejected: %v", err)
	}
	// Less than the live aggregate is a real violation.
	states[3].SCTC[0] = svc.NewCapabilitySet()
	if err := VerifyConvergenceExcept(topo, caps, states, crashed); err == nil {
		t.Fatal("sub-live aggregate accepted")
	}
	// More than the full aggregate (a resurrected service) is too.
	full := svc.Union(caps[0], caps[1], caps[2])
	extra := full.Clone()
	extra.Add("ghost")
	states[3].SCTC[0] = extra
	if err := VerifyConvergenceExcept(topo, caps, states, crashed); err == nil {
		t.Fatal("super-full aggregate accepted")
	}
}

// TestApplyBoundary is the node boundary of §4: what ApplyLocal and
// ApplyAggregate accept, reject as stale, and reject as malformed because
// the message names no slot of the table — and that none of it allocates.
func TestApplyBoundary(t *testing.T) {
	const members, k = 4, 3
	old, fresh := svc.NewCapabilitySet("old"), svc.NewCapabilitySet("fresh")
	for _, tc := range []struct {
		name      string
		aggregate bool
		untracked bool // nil Seq: the synchronous model
		key       int  // rank (local) or cluster id (aggregate)
		seq       uint64
		want      bool
	}{
		{name: "local, newer round", key: 1, seq: 6, want: true},
		{name: "local, first flood for an unlearned slot", key: 2, seq: 1, want: true},
		{name: "local, stale round", key: 1, seq: 4},
		{name: "local, equal round is a replay", key: 1, seq: 5},
		{name: "local, origin not a member (rank -1)", key: -1, seq: 9},
		{name: "local, rank past the member list", key: members, seq: 9},
		{name: "local, untracked state takes any round", untracked: true, key: 1, seq: 0, want: true},
		{name: "local, untracked state still has no slot for a non-member", untracked: true, key: -1, seq: 9},
		{name: "aggregate, newer round", aggregate: true, key: 1, seq: 6, want: true},
		{name: "aggregate, equal round (a second border's forward)", aggregate: true, key: 1, seq: 5, want: true},
		{name: "aggregate, stale round", aggregate: true, key: 1, seq: 4},
		{name: "aggregate, negative cluster id", aggregate: true, key: -1, seq: 9},
		{name: "aggregate, cluster id K", aggregate: true, key: k, seq: 9},
		{name: "aggregate, cluster id far past K", aggregate: true, key: 1 << 20, seq: 9},
		{name: "aggregate, untracked state takes any round", aggregate: true, untracked: true, key: 1, seq: 0, want: true},
		{name: "aggregate, untracked state still has no slot past K", aggregate: true, untracked: true, key: k, seq: 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Every run starts from slot 1 of each table learned in round 5.
			reset := func() NodeState {
				st := tracked(members, k)
				st.ApplyLocal(1, 5, old)
				st.ApplyAggregate(1, 5, old)
				if tc.untracked {
					st.Seq = nil
				}
				return st
			}
			apply := func(st *NodeState) bool {
				if tc.aggregate {
					return st.ApplyAggregate(tc.key, tc.seq, fresh)
				}
				return st.ApplyLocal(tc.key, tc.seq, fresh)
			}
			st := reset()
			before := reset()
			if got := apply(&st); got != tc.want {
				t.Fatalf("applied = %v, want %v", got, tc.want)
			}
			if !tc.want {
				if !reflect.DeepEqual(st, before) {
					t.Errorf("a rejected message changed the state:\n got %+v\nwant %+v", st, before)
				}
			} else {
				table, stamp := st.SCTP, tc.key
				if tc.aggregate {
					table, stamp = st.SCTC, members+tc.key
				}
				if !table[tc.key].Equal(fresh) {
					t.Errorf("slot %d = %v, want %v", tc.key, table[tc.key], fresh)
				}
				if st.Seq != nil && st.Seq[stamp] != tc.seq {
					t.Errorf("recorded round %d, want %d", st.Seq[stamp], tc.seq)
				}
			}
			if allocs := testing.AllocsPerRun(20, func() { apply(&st) }); allocs != 0 {
				t.Errorf("allocates %.0f times per call, want 0", allocs)
			}
		})
	}
}
