package mlhfc

import (
	"errors"
	"fmt"
	"math"

	"hfc/internal/routing"
	"hfc/internal/svc"
)

// This file is the tri-level resolve as mlhfc ran it in production before
// Route became routing.HierarchicalRouter over the super tier: its own
// map-based group-level search (a port of the search routing keeps as
// oracle_test.go), its own Kahn sort, dissect and compose loop, moved here
// text-unchanged. TestRouteMatchesGroupLevelOracle holds Route to it — GSP,
// children, hops and cost bits. Only the per-group child solve is shared with
// production (groupSolver, through the solveGroupChild adapter below), and
// GroupsProviding reads the super-aggregates in group order now that
// States.Super is SCT_C-shaped.

// GroupChild is one piece of a request dissected at the super level: a run
// of consecutive services mapped to the same group, with group-internal
// endpoints (super-border nodes except at the original endpoints).
type GroupChild struct {
	// Group is the super-cluster resolving this child.
	Group int
	// Source and Dest are GLOBAL node indices inside Group.
	Source, Dest int
	// Services is the linear run to place.
	Services []svc.Service
}

// oracleResult carries the tri-level routing outcome.
type oracleResult struct {
	// GSP is the group-level service path: (SG vertex, group) in order.
	GSP []struct{ SGVertex, Group int }
	// Children are the per-group child requests.
	Children []GroupChild
	// Path is the final composed concrete path (global indices).
	Path *routing.Path
}

// routeOracle resolves req with three-phase divide-and-conquer: (1) the
// destination node maps the request onto groups using the super-aggregates
// and a back-tracking relax over super-border distances; (2) the request is
// dissected into per-group children; (3) each child is resolved by the
// unchanged §5 bi-level hierarchical router inside its group, and the
// answers compose.
func routeOracle(t *Topology, states *States, req svc.Request) (*oracleResult, error) {
	if t == nil || states == nil {
		return nil, errors.New("mlhfc: nil topology or states")
	}
	if err := req.Validate(t.N()); err != nil {
		return nil, err
	}
	gs, gd := t.GroupOf(req.Source), t.GroupOf(req.Dest)

	gsp, err := groupLevelPath(t, states, req, gs, gd)
	if err != nil {
		return nil, err
	}
	children, err := dissect(t, req, gsp, gs, gd)
	if err != nil {
		return nil, err
	}

	var hops []routing.Hop
	cost := 0.0
	for i, child := range children {
		p, err := solveGroupChild(t, states, child)
		if err != nil {
			return nil, fmt.Errorf("mlhfc: child %d (group %d): %w", i, child.Group, err)
		}
		hops = append(hops, p.Hops...)
		cost += p.DecisionCost
		if i+1 < len(children) {
			u, v, err := t.SuperBorder(child.Group, children[i+1].Group)
			if err != nil {
				return nil, err
			}
			cost += t.Dist(u, v)
		}
	}
	res := &oracleResult{GSP: gsp, Children: children, Path: &routing.Path{Hops: routing.CompactHops(hops), DecisionCost: cost}}
	return res, nil
}

// groupLevelPath is the phase-1 search: the super-level analogue of §5.1
// step 2, with labels carrying the super-border entry node.
func groupLevelPath(t *Topology, states *States, req svc.Request, gs, gd int) ([]struct{ SGVertex, Group int }, error) {
	sg := req.SG
	nv := sg.Len()
	cands := make([][]int, nv)
	for v := 0; v < nv; v++ {
		cands[v] = states.GroupsProviding(sg.Services[v])
		if len(cands[v]) == 0 {
			return nil, fmt.Errorf("mlhfc: service %q: %w", sg.Services[v], routing.ErrNoProviders)
		}
	}
	order, err := sgTopo(sg)
	if err != nil {
		return nil, err
	}
	edgesByTail := make([][]int, nv)
	for _, e := range sg.Edges {
		edgesByTail[e[0]] = append(edgesByTail[e[0]], e[1])
	}

	type label struct {
		dist             float64
		entry            int // global super-border node, -1 inside source group
		parentV, parentG int
	}
	labels := make(map[[2]int]label)
	better := func(v, g int, cand label) {
		if old, ok := labels[[2]int{v, g}]; !ok || cand.dist < old.dist {
			labels[[2]int{v, g}] = cand
		}
	}
	internal := func(entry, exit int) float64 {
		if entry == -1 || entry == exit {
			return 0
		}
		return t.Dist(entry, exit)
	}

	for _, v := range sg.Sources() {
		for _, g := range cands[v] {
			l := label{parentV: -1, parentG: -1}
			if g == gs {
				l.dist, l.entry = 0, -1
			} else {
				out, in, err := t.SuperBorder(gs, g)
				if err != nil {
					return nil, err
				}
				l.dist = t.Dist(out, in)
				l.entry = in
			}
			better(v, g, l)
		}
	}
	for _, u := range order {
		for _, g := range cands[u] {
			ul, ok := labels[[2]int{u, g}]
			if !ok {
				continue
			}
			for _, v := range edgesByTail[u] {
				for _, g2 := range cands[v] {
					nl := label{parentV: u, parentG: g}
					if g2 == g {
						nl.dist, nl.entry = ul.dist, ul.entry
					} else {
						out, in, err := t.SuperBorder(g, g2)
						if err != nil {
							return nil, err
						}
						nl.dist = ul.dist + internal(ul.entry, out) + t.Dist(out, in)
						nl.entry = in
					}
					better(v, g2, nl)
				}
			}
		}
	}

	best := math.Inf(1)
	bestV, bestG := -1, -1
	for _, v := range sg.Sinks() {
		for _, g := range cands[v] {
			l, ok := labels[[2]int{v, g}]
			if !ok {
				continue
			}
			total := l.dist
			if g == gd {
				total += internal(l.entry, req.Dest)
			} else {
				out, in, err := t.SuperBorder(g, gd)
				if err != nil {
					return nil, err
				}
				total += internal(l.entry, out) + t.Dist(out, in) + t.Dist(in, req.Dest)
			}
			if total < best {
				best, bestV, bestG = total, v, g
			}
		}
	}
	if bestV == -1 {
		return nil, routing.ErrInfeasible
	}
	var rev []struct{ SGVertex, Group int }
	v, g := bestV, bestG
	for v != -1 {
		rev = append(rev, struct{ SGVertex, Group int }{v, g})
		l := labels[[2]int{v, g}]
		v, g = l.parentV, l.parentG
	}
	out := make([]struct{ SGVertex, Group int }, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out, nil
}

func sgTopo(sg *svc.Graph) ([]int, error) {
	n := sg.Len()
	indeg := make([]int, n)
	adj := make([][]int, n)
	for _, e := range sg.Edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		indeg[e[1]]++
	}
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	order := make([]int, 0, n)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, v := range adj[u] {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if len(order) != n {
		return nil, errors.New("mlhfc: service graph contains a cycle")
	}
	return order, nil
}

// dissect splits the request along the GSP into per-group children.
func dissect(t *Topology, req svc.Request, gsp []struct{ SGVertex, Group int }, gs, gd int) ([]GroupChild, error) {
	type run struct {
		group    int
		services []svc.Service
	}
	runs := []run{{group: gs}}
	for _, e := range gsp {
		cur := &runs[len(runs)-1]
		if e.Group == cur.group {
			cur.services = append(cur.services, req.SG.Services[e.SGVertex])
			continue
		}
		runs = append(runs, run{group: e.Group, services: []svc.Service{req.SG.Services[e.SGVertex]}})
	}
	if runs[len(runs)-1].group != gd {
		runs = append(runs, run{group: gd})
	}
	children := make([]GroupChild, len(runs))
	for i, ru := range runs {
		child := GroupChild{Group: ru.group, Services: ru.services}
		if i == 0 {
			child.Source = req.Source
		} else {
			src, _, err := t.SuperBorder(ru.group, runs[i-1].group)
			if err != nil {
				return nil, err
			}
			child.Source = src
		}
		if i == len(runs)-1 {
			child.Dest = req.Dest
		} else {
			dst, _, err := t.SuperBorder(ru.group, runs[i+1].group)
			if err != nil {
				return nil, err
			}
			child.Dest = dst
		}
		children[i] = child
	}
	return children, nil
}

// solveGroupChild hands one oracle child to the production group solver.
func solveGroupChild(t *Topology, states *States, child GroupChild) (*routing.Path, error) {
	return (&groupSolver{topo: t, states: states}).SolveChild(routing.ChildRequest{
		Cluster:  child.Group,
		Source:   child.Source,
		Dest:     child.Dest,
		Services: child.Services,
		Resolver: child.Dest,
	})
}

// GroupsProviding returns the groups whose super-aggregate includes x, in
// increasing order.
func (s *States) GroupsProviding(x svc.Service) []int {
	var out []int
	for g := 0; g < len(s.Super); g++ {
		if s.Super[g].Has(x) {
			out = append(out, g)
		}
	}
	return out
}
