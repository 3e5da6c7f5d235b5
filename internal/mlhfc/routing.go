package mlhfc

import (
	"errors"
	"fmt"

	"hfc/internal/routing"
	"hfc/internal/state"
	"hfc/internal/svc"
)

// Result carries the tri-level routing outcome.
type Result struct {
	// GSP is the group-level service path: each service-graph vertex with
	// the group (the entry's Cluster) chosen to provide it, in order.
	GSP []routing.CSPEntry
	// Children are the per-group child requests the GSP was dissected into;
	// Cluster is the group and the endpoints are global node indices,
	// super-border nodes except at the original endpoints.
	Children []routing.ChildRequest
	// Path is the final composed concrete path (global indices).
	Path *routing.Path
}

// Route resolves req with the §5 divide-and-conquer run one level up: the
// destination node is a routing.HierarchicalRouter whose clusters are the
// groups — its view is the super tier's, its SCT_C the super-aggregates — so
// the group-level search, the dissection at super-border pairs and the
// composition are routing's, and each per-group child is resolved by the same
// router over the group's interior.
func Route(t *Topology, states *States, req svc.Request) (*Result, error) {
	if t == nil || states == nil {
		return nil, errors.New("mlhfc: nil topology or states")
	}
	if err := req.Validate(t.N()); err != nil {
		return nil, err
	}
	view, err := t.super.SharedView(req.Dest)
	if err != nil {
		return nil, err
	}
	router := routing.HierarchicalRouter{
		View:            view,
		State:           &state.NodeState{Node: req.Dest, SCTC: states.Super},
		Intra:           &groupSolver{topo: t, states: states},
		ClusterOfSource: t.GroupOf,
		Mode:            routing.RelaxBacktrack,
	}
	res, err := router.Route(req)
	if err != nil {
		return nil, err
	}
	return &Result{GSP: res.CSP, Children: res.Children, Path: res.Path}, nil
}

// groupSolver resolves a group-level child inside its group via the
// unchanged bi-level hierarchical router, translating between global and
// group-local indices.
type groupSolver struct {
	topo   *Topology
	states *States
}

var _ routing.IntraSolver = (*groupSolver)(nil)

// SolveChild implements routing.IntraSolver.
func (s *groupSolver) SolveChild(child routing.ChildRequest) (*routing.Path, error) {
	t, g := s.topo, child.Cluster
	if t.GroupOf(child.Source) != g || t.GroupOf(child.Dest) != g {
		return nil, fmt.Errorf("mlhfc: child endpoints (%d,%d) not in group %d", child.Source, child.Dest, g)
	}
	localSrc, localDst := t.ToLocal(child.Source), t.ToLocal(child.Dest)
	if len(child.Services) == 0 {
		if localSrc == localDst {
			return &routing.Path{Hops: []routing.Hop{{Node: child.Source}}}, nil
		}
		interior := t.Interior(g)
		seq, err := interior.OverlayHopPath(localSrc, localDst)
		if err != nil {
			return nil, err
		}
		hops := make([]routing.Hop, len(seq))
		for i, li := range seq {
			hops[i] = routing.Hop{Node: t.ToGlobal(g, li)}
		}
		return &routing.Path{Hops: hops, DecisionCost: interior.PathLength(seq)}, nil
	}
	sg, err := svc.Linear(child.Services...)
	if err != nil {
		return nil, err
	}
	localReq := svc.Request{Source: localSrc, Dest: localDst, SG: sg}
	res, err := routing.NewHierarchicalRouter(t.Interior(g), s.states.PerGroup[g], localDst, routing.RelaxBacktrack)
	if err != nil {
		return nil, err
	}
	local, err := res.Route(localReq)
	if err != nil {
		return nil, err
	}
	hops := make([]routing.Hop, len(local.Path.Hops))
	for i, h := range local.Path.Hops {
		hops[i] = routing.Hop{Node: t.ToGlobal(g, h.Node), Service: h.Service}
	}
	return &routing.Path{Hops: hops, DecisionCost: local.Path.DecisionCost}, nil
}
