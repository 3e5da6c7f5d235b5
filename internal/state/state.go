// Package state implements the paper's hierarchical service-routing
// information distribution protocol (§4). Every proxy maintains two Service
// Capability Tables: SCT_P with the full per-proxy capability of its own
// cluster, and SCT_C with the aggregate capability (set union, footnote 5)
// of every cluster in the system. Local-state messages flood a proxy's SCI
// within its cluster; border proxies exchange aggregate-state messages
// across the external links and re-flood them inside their clusters.
//
// This package provides the protocol as a deterministic synchronous
// simulation with exact message accounting (used by the Fig. 9 experiments
// and by hierarchical routing); package overlay runs the same logic as a
// concurrent message-passing runtime.
package state

import (
	"errors"
	"fmt"
	"sort"

	"hfc/internal/hfc"
	"hfc/internal/svc"
)

// NodeState is the routing state one proxy holds after the protocol
// converges. States returned by Distribute share their tables (see there)
// and are read-only; only a NodeState whose owner built its maps itself —
// a proxy of the overlay runtime — may be edited through ApplyLocal and
// ApplyAggregate.
type NodeState struct {
	// Node is the proxy this state belongs to.
	Node int
	// SCTP maps each proxy of the node's own cluster (including itself)
	// to its service capability set.
	SCTP map[int]svc.CapabilitySet
	// SCTC maps every cluster ID in the system to the cluster's aggregate
	// service set.
	SCTC map[int]svc.CapabilitySet
	// SeqP and SeqC track the highest protocol round accepted per origin
	// proxy (local-state floods) and per origin cluster (aggregate
	// messages). A message stamped with an older round than the recorded
	// one is stale — a delayed or replayed flood — and must not overwrite
	// newer state; ApplyLocal/ApplyAggregate enforce this. Nil maps mean
	// no staleness tracking (the synchronous model, where ordering is
	// implicit).
	SeqP map[int]uint64
	SeqC map[int]uint64
}

// ApplyLocal installs a local-state flood from origin stamped with protocol
// round seq, unless a flood from the same origin for this or a newer round
// was already accepted. Exactly one authentic flood exists per (origin,
// round) — an origin broadcasts once per round — so an equal-round arrival
// is a replay and is rejected like any older one (duplicates of the
// authentic flood are absorbed upstream by the capability-generation
// check, which never calls down here). It reports whether the entry was
// applied; false means the message was stale and rejected (the
// resurrection guard a recovered node's re-flooded or delayed traffic
// must not bypass).
func (s *NodeState) ApplyLocal(origin int, seq uint64, set svc.CapabilitySet) bool {
	if s.SeqP == nil {
		s.SeqP = make(map[int]uint64)
	}
	if last, ok := s.SeqP[origin]; ok && seq <= last {
		return false
	}
	s.SeqP[origin] = seq
	if s.SCTP == nil {
		s.SCTP = make(map[int]svc.CapabilitySet)
	}
	s.SCTP[origin] = set
	return true
}

// ApplyAggregate installs an aggregate-state entry for an origin cluster
// stamped with protocol round seq, with the same staleness rule as
// ApplyLocal. Equal-round re-deliveries are accepted (several borders of
// one cluster legitimately forward the same round's aggregate).
func (s *NodeState) ApplyAggregate(cluster int, seq uint64, set svc.CapabilitySet) bool {
	if s.SeqC == nil {
		s.SeqC = make(map[int]uint64)
	}
	if last, ok := s.SeqC[cluster]; ok && seq < last {
		return false
	}
	s.SeqC[cluster] = seq
	if s.SCTC == nil {
		s.SCTC = make(map[int]svc.CapabilitySet)
	}
	s.SCTC[cluster] = set
	return true
}

// ServiceStateSize is the number of service-capability node-states the
// proxy maintains — the per-proxy quantity Fig. 9(b) reports: one entry per
// own-cluster proxy plus one per cluster in the system.
func (s *NodeState) ServiceStateSize() int { return len(s.SCTP) + len(s.SCTC) }

// HasLocal reports whether the node's SCT_P lists service x on proxy p.
func (s *NodeState) HasLocal(p int, x svc.Service) bool {
	set, ok := s.SCTP[p]
	return ok && set.Has(x)
}

// ClustersProviding returns the IDs of clusters whose aggregate set
// includes x, in increasing order.
func (s *NodeState) ClustersProviding(x svc.Service) []int {
	var out []int
	n, dense := len(s.SCTC), 0
	for c := 0; c < n; c++ {
		if set, ok := s.SCTC[c]; ok {
			dense++
			if set.Has(x) {
				out = append(out, c)
			}
		}
	}
	if dense == n {
		return out
	}
	// The table is not full yet (a proxy just back from Recover knows its
	// own cluster only): the remaining ids lie outside [0, n).
	for c, set := range s.SCTC {
		if (c < 0 || c >= n) && set.Has(x) {
			out = append(out, c)
		}
	}
	sort.Ints(out)
	return out
}

// MessageStats counts protocol traffic for one full distribution round.
type MessageStats struct {
	// LocalMessages is the number of intra-cluster local-state messages
	// (each proxy floods its SCI to every other member of its cluster).
	LocalMessages int
	// AggregateMessages is the number of aggregate-state messages sent
	// across external links between border-proxy pairs.
	AggregateMessages int
	// ForwardMessages is the number of intra-cluster forwards of received
	// aggregate-state messages.
	ForwardMessages int
}

// Total returns the total message count.
func (m MessageStats) Total() int {
	return m.LocalMessages + m.AggregateMessages + m.ForwardMessages
}

// Distribute runs the §4 protocol to convergence over an HFC topology with
// the given per-proxy capability assignment (caps[i] is overlay node i's
// SCI) and returns every node's resulting state plus exact message counts.
//
// The synchronous schedule is: (1) every proxy floods a local-state message
// to its cluster; (2) every border proxy aggregates its own cluster's SCI
// and sends one aggregate-state message per external link it terminates;
// (3) every border proxy that received an aggregate forwards it to the
// other members of its cluster. A proxy learns its own cluster's aggregate
// locally (no message needed).
//
// §4 converges with every member of a cluster holding the same SCT_P and
// every proxy the same SCT_C, so each table is built once — one SCT_P map
// per cluster, one SCT_C map for the system, caps cloned once per proxy —
// and the returned states reference them. The tables are read-only: a
// caller that needs different state calls Distribute again and replaces
// the states, it never edits a returned map or set.
func Distribute(t *hfc.Topology, caps []svc.CapabilitySet) ([]NodeState, MessageStats, error) {
	if t == nil {
		return nil, MessageStats{}, errors.New("state: nil topology")
	}
	if len(caps) != t.N() {
		return nil, MessageStats{}, fmt.Errorf("state: %d capability sets for %d nodes", len(caps), t.N())
	}
	for i, c := range caps {
		if c == nil {
			return nil, MessageStats{}, fmt.Errorf("state: nil capability set for node %d", i)
		}
	}

	k := t.NumClusters()
	states := make([]NodeState, t.N())
	sctc := make(map[int]svc.CapabilitySet, k)
	var stats MessageStats
	for c := 0; c < k; c++ {
		members := t.Members(c)
		m := len(members)
		// Phase 1: every proxy floods its SCI to the other m-1 members, so
		// all of them end with the same table. The cluster's aggregate is
		// the union its border proxies compute from that table.
		sctp := make(map[int]svc.CapabilitySet, m)
		agg := make(svc.CapabilitySet)
		for _, p := range members {
			sctp[p] = caps[p].Clone()
			agg.UnionInto(caps[p])
		}
		sctc[c] = agg
		for _, p := range members {
			states[p] = NodeState{Node: p, SCTP: sctp, SCTC: sctc}
		}
		stats.LocalMessages += m * (m - 1)
		// Phases 2+3: each of the other k-1 clusters sends its aggregate
		// over the external link to c's border proxy, which forwards it to
		// the other m-1 members.
		stats.AggregateMessages += k - 1
		stats.ForwardMessages += (k - 1) * (m - 1)
	}
	return states, stats, nil
}

// FlatStateSize returns the per-proxy node-state count of the flat
// (single-level) baseline for both Fig. 9 metrics: every proxy keeps one
// entry per overlay node, for coordinates and for service capability alike.
func FlatStateSize(n int) int { return n }

// VerifyConvergence checks the protocol's correctness conditions: every
// node's SCT_P matches the true capabilities of exactly its cluster
// members, and every node's SCT_C holds the true aggregate of every
// cluster. It returns the first violation found.
func VerifyConvergence(t *hfc.Topology, caps []svc.CapabilitySet, states []NodeState) error {
	return VerifyConvergenceExcept(t, caps, states, nil)
}

// VerifyConvergenceExcept checks convergence modulo a crashed set (crashed
// may be nil for the strict fault-free check). Crashed nodes' own states
// are skipped entirely — fail-stop nodes neither receive nor process, so
// their tables are legitimately frozen. For live nodes the conditions
// relax exactly as far as fail-stop semantics force them to:
//
//   - SCT_P must hold the true capability of every LIVE member of the
//     node's cluster. Entries for crashed members may be absent (a
//     recovered node re-learns only from live floods) or stale (a
//     never-crashed node keeps the last pre-crash truth); either way they
//     are not checked.
//   - SCT_C must hold, for every cluster, at least the union of that
//     cluster's live members' capabilities and at most the union of all
//     its members' — the bracket between what a freshly recovered border
//     can aggregate and what an untouched node still remembers.
func VerifyConvergenceExcept(t *hfc.Topology, caps []svc.CapabilitySet, states []NodeState, crashed func(node int) bool) error {
	if len(states) != t.N() {
		return fmt.Errorf("state: %d states for %d nodes", len(states), t.N())
	}
	down := func(node int) bool { return crashed != nil && crashed(node) }
	k := t.NumClusters()
	liveAgg := make([]svc.CapabilitySet, k)
	fullAgg := make([]svc.CapabilitySet, k)
	for c := 0; c < k; c++ {
		var live, full []svc.CapabilitySet
		for _, p := range t.Members(c) {
			full = append(full, caps[p])
			if !down(p) {
				live = append(live, caps[p])
			}
		}
		liveAgg[c] = svc.Union(live...)
		fullAgg[c] = svc.Union(full...)
	}
	for i := range states {
		if down(i) {
			continue
		}
		st := &states[i]
		own := t.ClusterOf(i)
		members := t.Members(own)
		liveMembers := 0
		for _, m := range members {
			if down(m) {
				continue
			}
			liveMembers++
			set, ok := st.SCTP[m]
			if !ok {
				return fmt.Errorf("state: node %d SCT_P missing cluster member %d", i, m)
			}
			if !set.Equal(caps[m]) {
				return fmt.Errorf("state: node %d SCT_P entry for %d is %v, want %v", i, m, set, caps[m])
			}
		}
		if len(st.SCTP) < liveMembers || len(st.SCTP) > len(members) {
			return fmt.Errorf("state: node %d SCT_P has %d entries, want %d..%d", i, len(st.SCTP), liveMembers, len(members))
		}
		if len(st.SCTC) != k {
			return fmt.Errorf("state: node %d SCT_C has %d entries, want %d", i, len(st.SCTC), k)
		}
		for c := 0; c < k; c++ {
			set, ok := st.SCTC[c]
			if !ok {
				return fmt.Errorf("state: node %d SCT_C missing cluster %d", i, c)
			}
			if crashed == nil {
				if !set.Equal(fullAgg[c]) {
					return fmt.Errorf("state: node %d SCT_C entry for cluster %d is %v, want %v", i, c, set, fullAgg[c])
				}
				continue
			}
			if !containsAll(set, liveAgg[c]) || !containsAll(fullAgg[c], set) {
				return fmt.Errorf("state: node %d SCT_C entry for cluster %d is %v, want between live aggregate %v and full aggregate %v",
					i, c, set, liveAgg[c], fullAgg[c])
			}
		}
	}
	return nil
}

// containsAll reports whether super holds every service of sub.
func containsAll(super, sub svc.CapabilitySet) bool {
	for _, x := range sub.Sorted() {
		if !super.Has(x) {
			return false
		}
	}
	return true
}
