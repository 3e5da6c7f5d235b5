// Package state implements the paper's hierarchical service-routing
// information distribution protocol (§4). Every proxy maintains two Service
// Capability Tables: SCT_P with the full per-proxy capability of its own
// cluster, and SCT_C with the aggregate capability (set union, footnote 5)
// of every cluster in the system. Local-state messages flood a proxy's SCI
// within its cluster; border proxies exchange aggregate-state messages
// across the external links and re-flood them inside their clusters.
//
// Both tables are dense: their keys are a member's rank in its cluster's
// sorted member list and a cluster id in [0, K), so a table is a slice with
// one slot per key — (members + K) × 8 B per proxy, twice that with the round
// stamps (≈ 2 kB at n = 4000, K = 66, where four Go maps held ≈ 9 kB). A
// nil entry is one the proxy has not learned yet; a message that names no slot
// (a non-member origin, a cluster id outside [0, K)) is rejected.
//
// This package provides the protocol as a deterministic synchronous
// simulation with exact message accounting (used by the Fig. 9 experiments
// and by hierarchical routing); package overlay runs the same logic as a
// concurrent message-passing runtime.
package state

import (
	"errors"
	"fmt"
	"slices"

	"hfc/internal/hfc"
	"hfc/internal/svc"
)

// NodeState is the routing state one proxy holds after the protocol
// converges. States returned by Distribute share their tables (see there)
// and are read-only; only a NodeState whose owner sized its tables itself —
// a proxy of the overlay runtime — may be edited through ApplyLocal and
// ApplyAggregate.
type NodeState struct {
	// Node is the proxy this state belongs to.
	Node int
	// SCTP holds the service capability set of each proxy of the node's own
	// cluster (itself included), aligned with the cluster's sorted member
	// list: entry r belongs to Members[r]. Nil means not learned yet.
	SCTP []svc.CapabilitySet
	// SCTC holds every cluster's aggregate service set, indexed by cluster
	// ID. Nil means not learned yet.
	SCTC []svc.CapabilitySet
	// Seq tracks the highest protocol round accepted per origin: one stamp
	// per SCTP slot (local-state floods), then one per SCTC slot (aggregate
	// messages), in one slice so that a NodeState stays 80 bytes — Distribute
	// returns one per proxy. Rounds count from 1, zero is "none yet". A
	// message stamped with an older round than the recorded one is stale — a
	// delayed or replayed flood — and must not overwrite newer state;
	// ApplyLocal/ApplyAggregate enforce this. Nil means no staleness tracking
	// (the synchronous model, where ordering is implicit).
	Seq []uint64
}

// ApplyLocal installs a local-state flood from the cluster member of the
// given rank, stamped with protocol round seq, unless a flood from the same
// origin for this or a newer round was already accepted. Exactly one
// authentic flood exists per (origin, round) — an origin broadcasts once per
// round — so an equal-round arrival is a replay and is rejected like any
// older one (duplicates of the authentic flood are absorbed upstream by the
// capability-generation check, which never calls down here). A rank outside
// the table — the caller's answer for an origin that is not a member of
// this cluster — has no slot to land in and is rejected too. It reports
// whether the entry was applied; false means the message was stale or
// malformed (the resurrection guard a recovered node's re-flooded or
// delayed traffic must not bypass). It allocates nothing.
//
//hfc:hotpath budget=0
func (s *NodeState) ApplyLocal(rank int, seq uint64, set svc.CapabilitySet) bool {
	if rank < 0 || rank >= len(s.SCTP) {
		return false
	}
	if s.Seq != nil {
		if seq <= s.Seq[rank] {
			return false
		}
		s.Seq[rank] = seq
	}
	s.SCTP[rank] = set
	return true
}

// ApplyAggregate installs an aggregate-state entry for an origin cluster
// stamped with protocol round seq, with the same staleness rule as
// ApplyLocal, except that equal-round re-deliveries are accepted (several
// borders of one cluster legitimately forward the same round's aggregate).
// A cluster id outside [0, K) is rejected. It allocates nothing.
//
//hfc:hotpath budget=0
func (s *NodeState) ApplyAggregate(cluster int, seq uint64, set svc.CapabilitySet) bool {
	if cluster < 0 || cluster >= len(s.SCTC) {
		return false
	}
	if s.Seq != nil {
		at := len(s.SCTP) + cluster
		if seq < s.Seq[at] {
			return false
		}
		s.Seq[at] = seq
	}
	s.SCTC[cluster] = set
	return true
}

// learned counts the entries of a table that hold a set.
func learned(table []svc.CapabilitySet) int {
	n := 0
	for _, set := range table {
		if set != nil {
			n++
		}
	}
	return n
}

// ServiceStateSize is the number of service-capability node-states the
// proxy maintains — the per-proxy quantity Fig. 9(b) reports: one entry per
// own-cluster proxy plus one per cluster in the system, counting the
// entries learned so far.
func (s *NodeState) ServiceStateSize() int { return learned(s.SCTP) + learned(s.SCTC) }

// ClustersProviding returns the IDs of clusters whose aggregate set
// includes x, in increasing order. Clusters not learned yet provide nothing.
func (s *NodeState) ClustersProviding(x svc.Service) []int {
	var out []int
	for c, set := range s.SCTC {
		if set.Has(x) {
			out = append(out, c)
		}
	}
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
// every proxy the same SCT_C, so each table is built once — one SCT_P slice
// per cluster, one SCT_C slice for the system, caps cloned once per proxy —
// and the returned states reference them. The tables are read-only: a
// caller whose deployment changes replaces them — Update for one proxy's
// SCI, Distribute again for anything else — it never edits a returned table
// or set.
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

	states := make([]NodeState, t.N())
	sctc := make([]svc.CapabilitySet, t.NumClusters())
	for c := range sctc {
		members := t.Members(c)
		var sctp []svc.CapabilitySet
		sctp, sctc[c] = convergeCluster(members, caps, nil, -1, 0)
		for _, p := range members {
			states[p] = NodeState{Node: p, SCTP: sctp, SCTC: sctc}
		}
	}
	return states, RoundMessages(t), nil
}

// RoundMessages is the one closed form of a §4 round's traffic over t: per
// cluster of m members, m(m−1) local floods, plus K−1 aggregates across the
// external links into its border proxies, which forward each to the other
// m−1 members — (K−1)(m−1) forwards.
func RoundMessages(t *hfc.Topology) MessageStats {
	k := t.NumClusters()
	var stats MessageStats
	for c := 0; c < k; c++ {
		m := len(t.Members(c))
		stats.LocalMessages += m * (m - 1)
		stats.AggregateMessages += k - 1
		stats.ForwardMessages += (k - 1) * (m - 1)
	}
	return stats
}

// convergeCluster is one cluster's convergence step, the one place a table
// is built. Phase 1: every proxy floods its SCI to the other members, so all
// of them end with the same SCT_P; the cluster's aggregate is the union its
// border proxies compute from that table. prev is the table the cluster
// converged to before, nil for none: with it, only the proxy named changed
// has a new SCI to flood — every other member's set is prev's (sets are
// read-only, so the new table shares them) and one Clone is all the step
// copies. services sizes the aggregate: how many the previous one listed, 0
// for no idea.
//
//hfc:hotpath budget=2
func convergeCluster(members []int, caps, prev []svc.CapabilitySet, changed, services int) (sctp []svc.CapabilitySet, aggregate svc.CapabilitySet) {
	sctp = make([]svc.CapabilitySet, len(members))
	aggregate = make(svc.CapabilitySet, services)
	for r, p := range members {
		if prev != nil && p != changed {
			sctp[r] = prev[r]
		} else {
			sctp[r] = caps[p].Clone()
		}
		aggregate.UnionInto(sctp[r])
	}
	return sctp, aggregate
}

// Update re-converges states after one proxy's SCI changed: caps[node] is
// the new set, and states is what Distribute (or an earlier Update) returned
// for caps as it was before — the caller's own slice, whose elements Update
// overwrites. It costs the proxy's cluster, not the overlay, as §4's flood
// does: the cluster's members are pointed at a new SCT_P (convergeCluster
// over the old one), and only if the cluster's aggregate came out different
// — the case in which §4 sends aggregate-state messages across the borders —
// is every proxy pointed at a new SCT_C, a copy of the old with that one
// entry replaced. It reports that case. Tables are replaced, never edited:
// whoever else holds the old ones (the states Distribute returned, an index
// built over them) keeps a consistent, older picture, and every table the
// update did not replace is the same slice as before. The result equals
// Distribute(t, caps) (TestUpdateMatchesDistribute).
//
// That states is shaped like t (one SCT_P slot per cluster member, K SCT_C
// slots — serve.NewEngine checks it once), that node is in range and that
// caps[node] is not nil are the caller's contract.
//
//hfc:hotpath budget=0
func Update(t *hfc.Topology, caps []svc.CapabilitySet, states []NodeState, node int) (aggregateChanged bool) {
	c := t.ClusterOf(node)
	members := t.Members(c)
	old := states[node].SCTC
	sctp, aggregate := convergeCluster(members, caps, states[node].SCTP, node, len(old[c]))
	for _, p := range members {
		states[p].SCTP = sctp
	}
	if aggregate.Equal(old[c]) {
		return false
	}
	sctc := slices.Clone(old)
	sctc[c] = aggregate
	for i := range states {
		states[i].SCTC = sctc
	}
	return true
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
//     node's cluster. Entries for crashed members may be unlearned (a
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
		// A table has one slot per key; what a node knows is the slots it
		// has learned, so "missing" below is a nil entry, not a short table.
		if len(st.SCTP) != len(members) || len(st.SCTC) != k {
			return fmt.Errorf("state: node %d has %d SCT_P and %d SCT_C slots for %d cluster members and %d clusters",
				i, len(st.SCTP), len(st.SCTC), len(members), k)
		}
		for r, m := range members {
			if down(m) {
				continue
			}
			set := st.SCTP[r]
			if set == nil {
				return fmt.Errorf("state: node %d SCT_P missing cluster member %d", i, m)
			}
			if !set.Equal(caps[m]) {
				return fmt.Errorf("state: node %d SCT_P entry for %d is %v, want %v", i, m, set, caps[m])
			}
		}
		for c, set := range st.SCTC {
			if set == nil {
				return fmt.Errorf("state: node %d SCT_C missing cluster %d", i, c)
			}
			if crashed == nil {
				if !set.Equal(fullAgg[c]) {
					return fmt.Errorf("state: node %d SCT_C entry for cluster %d is %v, want %v", i, c, set, fullAgg[c])
				}
				continue
			}
			// liveAgg ⊆ set ⊆ fullAgg: a union with a subset adds nothing.
			if svc.Union(set, liveAgg[c]).Len() != set.Len() || svc.Union(fullAgg[c], set).Len() != fullAgg[c].Len() {
				return fmt.Errorf("state: node %d SCT_C entry for cluster %d is %v, want between live aggregate %v and full aggregate %v",
					i, c, set, liveAgg[c], fullAgg[c])
			}
		}
	}
	return nil
}
