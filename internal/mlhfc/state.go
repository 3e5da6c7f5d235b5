package mlhfc

import (
	"errors"
	"fmt"

	"hfc/internal/state"
	"hfc/internal/svc"
)

// States is the converged tri-level routing state: per group, the bi-level
// §4 state of its members (group-local indices), plus one super-aggregate
// per group — the union of everything deployed in it, which super-border
// nodes would exchange pairwise exactly as §4's border proxies do one level
// down.
type States struct {
	// PerGroup[g] holds group g's converged bi-level states, indexed by
	// group-local node index.
	PerGroup [][]state.NodeState
	// Super is SCT_C one level up: the aggregate service set of every group,
	// indexed by group ID — the table the group-level search reads exactly
	// as the cluster-level search reads a proxy's SCT_C.
	Super []svc.CapabilitySet
	// Messages totals the protocol traffic across all groups' interior
	// rounds plus the super-aggregate exchange.
	Messages state.MessageStats
}

// Distribute runs the tri-level state protocol synchronously: each group's
// interior §4 round, then §4's aggregate step one level up — a super border
// aggregates its group's SCT_C as a border aggregates its cluster's SCT_P,
// and the super-border pairs exchange and re-flood it (counted by
// SuperMessages, not simulated node by node).
func Distribute(t *Topology, caps []svc.CapabilitySet) (*States, error) {
	if t == nil {
		return nil, errors.New("mlhfc: nil topology")
	}
	if len(caps) != t.N() {
		return nil, fmt.Errorf("mlhfc: %d capability sets for %d nodes", len(caps), t.N())
	}
	out := &States{
		PerGroup: make([][]state.NodeState, t.NumGroups()),
		Super:    make([]svc.CapabilitySet, t.NumGroups()),
		Messages: t.SuperMessages(),
	}
	for g := range out.PerGroup {
		states, msgs, err := state.Distribute(t.Interior(g), t.GroupCaps(caps, g))
		if err != nil {
			return nil, fmt.Errorf("mlhfc: group %d state: %w", g, err)
		}
		out.PerGroup[g] = states
		out.Super[g] = svc.Union(states[0].SCTC...)
		out.Messages.LocalMessages += msgs.LocalMessages
		out.Messages.AggregateMessages += msgs.AggregateMessages
		out.Messages.ForwardMessages += msgs.ForwardMessages
	}
	return out, nil
}

// SuperMessages is the super tier's traffic in one tri-level round:
// state.RoundMessages over the groups, less the local floods, which the
// interiors' rounds already count.
func (t *Topology) SuperMessages() state.MessageStats {
	msgs := state.RoundMessages(t.super)
	msgs.LocalMessages = 0
	return msgs
}

// GroupCaps returns group g's share of a deployment over global indices,
// indexed by group-local node index as the group's interior is.
func (t *Topology) GroupCaps(caps []svc.CapabilitySet, g int) []svc.CapabilitySet {
	members := t.Members(g)
	out := make([]svc.CapabilitySet, len(members))
	for li, node := range members {
		out[li] = caps[node]
	}
	return out
}

// Verify checks tri-level convergence: every group's interior state against
// the bi-level verifier, and every super-aggregate against the true union.
func Verify(t *Topology, caps []svc.CapabilitySet, s *States) error {
	if s == nil || len(s.PerGroup) != t.NumGroups() || len(s.Super) != t.NumGroups() {
		return errors.New("mlhfc: malformed states")
	}
	for g := 0; g < t.NumGroups(); g++ {
		localCaps := t.GroupCaps(caps, g)
		if err := state.VerifyConvergence(t.Interior(g), localCaps, s.PerGroup[g]); err != nil {
			return fmt.Errorf("mlhfc: group %d: %w", g, err)
		}
		if !s.Super[g].Equal(svc.Union(localCaps...)) {
			return fmt.Errorf("mlhfc: group %d super-aggregate mismatch", g)
		}
	}
	return nil
}
