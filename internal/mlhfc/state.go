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
// interior §4 round, then the super-aggregate exchange between super-border
// pairs with intra-group re-flooding (counted, not simulated node by node —
// the interior machinery is identical to the bi-level case already
// exercised by package state).
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
	}
	for g := 0; g < t.NumGroups(); g++ {
		members := t.Members(g)
		localCaps := make([]svc.CapabilitySet, len(members))
		for li, node := range members {
			localCaps[li] = caps[node]
		}
		states, msgs, err := state.Distribute(t.Interior(g), localCaps)
		if err != nil {
			return nil, fmt.Errorf("mlhfc: group %d state: %w", g, err)
		}
		out.PerGroup[g] = states
		out.Super[g] = svc.Union(localCaps...)
		out.Messages.LocalMessages += msgs.LocalMessages
		out.Messages.AggregateMessages += msgs.AggregateMessages
		out.Messages.ForwardMessages += msgs.ForwardMessages
	}
	// Super-aggregate exchange: one message per directed group pair, then
	// |group|-1 forwards into each receiving group.
	k := t.NumGroups()
	for a := 0; a < k; a++ {
		for b := 0; b < k; b++ {
			if a == b {
				continue
			}
			out.Messages.AggregateMessages++
			out.Messages.ForwardMessages += len(t.Members(b)) - 1
		}
	}
	return out, nil
}

// Verify checks tri-level convergence: every group's interior state against
// the bi-level verifier, and every super-aggregate against the true union.
func Verify(t *Topology, caps []svc.CapabilitySet, s *States) error {
	if s == nil || len(s.PerGroup) != t.NumGroups() || len(s.Super) != t.NumGroups() {
		return errors.New("mlhfc: malformed states")
	}
	for g := 0; g < t.NumGroups(); g++ {
		members := t.Members(g)
		localCaps := make([]svc.CapabilitySet, len(members))
		for li, node := range members {
			localCaps[li] = caps[node]
		}
		if err := state.VerifyConvergence(t.Interior(g), localCaps, s.PerGroup[g]); err != nil {
			return fmt.Errorf("mlhfc: group %d: %w", g, err)
		}
		if !s.Super[g].Equal(svc.Union(localCaps...)) {
			return fmt.Errorf("mlhfc: group %d super-aggregate mismatch", g)
		}
	}
	return nil
}
