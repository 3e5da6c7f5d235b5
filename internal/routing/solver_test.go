package routing

import (
	"errors"
	"math"
	"slices"
	"testing"

	"hfc/internal/coords"
	"hfc/internal/state"
	"hfc/internal/svc"
)

// TestIntraSolveHostShapes drives the one §5.2 solve with the arguments each
// of its hosts passes — a converged table (scanned, and through the inverted
// index), a live table whose failure detector reports a member dead, a table
// pruned by a load bound and a bandwidth filter — over the children a
// dissection produces: a service chain, a chain whose endpoints coincide, a
// relay-only child and the one-node relay. Service children are held to an
// exhaustive search over the admissible placements.
func TestIntraSolveHostShapes(t *testing.T) {
	// One cluster of six proxies; 0 and 5 are its borders.
	pts := []coords.Point{{0, 0}, {10, 5}, {20, 1}, {30, 6}, {40, 2}, {50, 0}}
	members := []int{0, 1, 2, 3, 4, 5}
	sctp := []svc.CapabilitySet{
		0: svc.NewCapabilitySet(),
		1: svc.NewCapabilitySet("a"),
		2: svc.NewCapabilitySet("a", "b"),
		3: svc.NewCapabilitySet("b"),
		4: svc.NewCapabilitySet("a", "c"),
		5: svc.NewCapabilitySet(),
	}
	dist := func(u, v int) float64 { return coords.Dist(pts[u], pts[v]) }
	states := make([]state.NodeState, len(members))
	for i := range states {
		states[i] = state.NodeState{Node: i, SCTP: sctp}
	}
	indexes := NewLazyIndexes(states, func(int) []int { return members }, nil)
	notTwo := func(node int) bool { return node != 2 }
	thin := func(u, v int) bool { return min(u, v) != 0 || max(u, v) != 1 } // the 0–1 pair is under the bound
	noRelay := func(u, v int) bool { return min(u, v) != 0 || max(u, v) != 5 }

	hosts := []struct {
		name  string
		solve IntraSolve
	}{
		{"converged table, scanned", IntraSolve{Members: members, SCTP: sctp, Oracle: OracleFunc(dist)}},
		{"converged table, indexed", IntraSolve{Members: members, SCTP: sctp, Indexes: indexes, Oracle: OracleFunc(dist)}},
		{"indexed with an excluded member", IntraSolve{Members: members, SCTP: sctp, Indexes: indexes, Usable: notTwo, Oracle: OracleFunc(dist)}},
		{"live table with a dead member", IntraSolve{Members: members, SCTP: sctp, Usable: notTwo, Oracle: OracleFunc(dist)}},
		{"load- and bandwidth-pruned", IntraSolve{Members: members, SCTP: sctp, Usable: notTwo, Oracle: OracleFunc(dist), Admissible: thin}},
		{"bandwidth-pruned border pair", IntraSolve{Members: members, SCTP: sctp, Oracle: OracleFunc(dist), Admissible: noRelay}},
	}
	children := []ChildRequest{
		{Source: 0, Dest: 5, Resolver: 5, Services: []svc.Service{"a", "b"}},
		{Source: 0, Dest: 5, Resolver: 5, Services: []svc.Service{"b", "c"}},
		{Source: 3, Dest: 3, Resolver: 3, Services: []svc.Service{"a"}},
		{Source: 0, Dest: 5, Resolver: 5, Services: []svc.Service{"nowhere"}},
		{Source: 0, Dest: 5, Resolver: 5},
		{Source: 3, Dest: 3, Resolver: 3},
	}
	for _, h := range hosts {
		for _, child := range children {
			got, err := h.solve.Solve(child)
			want, wantErr := exhaustiveChild(child, members, sctp, h.solve.Usable, h.solve.Admissible, dist)
			if wantErr != nil {
				if !errors.Is(err, wantErr) {
					t.Errorf("%s, child %+v: err = %v, want %v", h.name, child, err, wantErr)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s, child %+v: %v", h.name, child, err)
				continue
			}
			if !slices.Equal(got.Hops, want.Hops) || math.Abs(got.DecisionCost-want.DecisionCost) > 1e-9 {
				t.Errorf("%s, child %+v: path %v cost %v, want %v cost %v",
					h.name, child, got, got.DecisionCost, want, want.DecisionCost)
			}
		}
	}

	// The table above means something only if the filters bite: unfiltered,
	// the a→b chain runs through member 2; without it, over the 0–1 pair;
	// without either, the long way round.
	first := func(host int) []Hop {
		p, err := hosts[host].solve.Solve(children[0])
		if err != nil {
			t.Fatalf("%s: %v", hosts[host].name, err)
		}
		return p.Hops
	}
	if free := first(0); free[1].Node != 2 {
		t.Errorf("unfiltered path %v avoids member 2: excluding it proves nothing", free)
	}
	if dead := first(3); dead[1].Node != 1 {
		t.Errorf("path %v without member 2 avoids the 0–1 pair: filtering it proves nothing", dead)
	}
	if pruned := first(4); pruned[1].Node == 1 || pruned[1].Node == 2 {
		t.Errorf("pruned path %v uses the thin 0–1 pair or the excluded member 2", pruned)
	}
	if _, err := hosts[5].solve.Solve(children[4]); !errors.Is(err, ErrInfeasible) {
		t.Errorf("relay-only child over an inadmissible border pair: err = %v, want ErrInfeasible", err)
	}
}

// exhaustiveChild is the reference for IntraSolve.Solve: every placement of
// the child's services on usable members the table lists them on, every hop
// between distinct nodes admissible, cheapest wins (the fixture has no ties).
func exhaustiveChild(child ChildRequest, members []int, sctp []svc.CapabilitySet,
	usable func(int) bool, admissible EdgeFilter, dist func(u, v int) float64) (*Path, error) {
	var best *Path
	var place func(hops []Hop, cost float64, rest []svc.Service)
	step := func(from, to int) (float64, bool) {
		if from == to {
			return 0, true
		}
		if admissible != nil && !admissible(from, to) {
			return 0, false
		}
		return dist(from, to), true
	}
	place = func(hops []Hop, cost float64, rest []svc.Service) {
		last := hops[len(hops)-1].Node
		if len(rest) == 0 {
			d, ok := step(last, child.Dest)
			if !ok || (best != nil && cost+d >= best.DecisionCost) {
				return
			}
			full := append(slices.Clone(hops), Hop{Node: child.Dest})
			if len(child.Services) == 0 && child.Source == child.Dest {
				full = full[:1]
			}
			best = &Path{Hops: full, DecisionCost: cost + d}
			return
		}
		for _, m := range members {
			if !sctp[m].Has(rest[0]) || (usable != nil && !usable(m)) {
				continue
			}
			if d, ok := step(last, m); ok {
				place(append(slices.Clone(hops), Hop{Node: m, Service: rest[0]}), cost+d, rest[1:])
			}
		}
	}
	for _, x := range child.Services {
		if !slices.ContainsFunc(members, func(m int) bool {
			return sctp[m].Has(x) && (usable == nil || usable(m))
		}) {
			return nil, ErrNoProviders
		}
	}
	place([]Hop{{Node: child.Source}}, 0, child.Services)
	if best == nil {
		return nil, ErrInfeasible
	}
	return best, nil
}
