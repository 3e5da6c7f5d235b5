package qos

import (
	"errors"
	"fmt"

	"hfc/internal/hfc"
	"hfc/internal/routing"
	"hfc/internal/state"
	"hfc/internal/svc"
)

// Router performs hierarchical QoS service routing: the §5 cluster-level
// search constrained by the clusters' advertised QoS aggregates, with child
// requests resolved exactly under the true per-node constraints.
type Router struct {
	topo   *hfc.Topology
	states []state.NodeState
	prof   *Profile
	agg    *Aggregates
	// Policy gates cluster-level bandwidth admission (default
	// PolicyOptimistic; see Policy).
	Policy Policy
}

// NewRouter builds a hierarchical QoS router over a converged framework,
// computing the cluster aggregates once.
func NewRouter(topo *hfc.Topology, states []state.NodeState, caps []svc.CapabilitySet, prof *Profile) (*Router, error) {
	if topo == nil {
		return nil, errors.New("qos: nil topology")
	}
	if len(states) != topo.N() {
		return nil, fmt.Errorf("qos: %d states for %d nodes", len(states), topo.N())
	}
	agg, err := Aggregate(topo, caps, prof)
	if err != nil {
		return nil, err
	}
	return &Router{topo: topo, states: states, prof: prof, agg: agg}, nil
}

// Aggregates exposes the computed per-cluster QoS advertisements.
func (r *Router) Aggregates() *Aggregates { return r.agg }

func (r *Router) policy() Policy {
	if r.Policy == 0 {
		return PolicyOptimistic
	}
	return r.Policy
}

// Route resolves req hierarchically under the constraints. The returned
// path is guaranteed to satisfy them (crossings are admitted on measured
// bandwidth and the child solves are exact); requests the aggregates cannot
// admit fail with ErrInfeasible or ErrNoProviders even when a flat router
// with full state would succeed — the false-blocking cost of aggregation,
// measured by the qos experiment.
func (r *Router) Route(req svc.Request, cons Constraints) (*routing.Path, error) {
	if err := cons.validate(); err != nil {
		return nil, err
	}
	if err := req.Validate(r.topo.N()); err != nil {
		return nil, err
	}
	view, err := r.topo.SharedView(req.Dest)
	if err != nil {
		return nil, err
	}
	router := &routing.HierarchicalRouter{
		View:            view,
		State:           &r.states[req.Dest],
		Intra:           &intraSolver{topo: r.topo, states: r.states, prof: r.prof, cons: cons},
		ClusterOfSource: r.topo.ClusterOf,
		Mode:            routing.RelaxBacktrack,
		ClusterAdmissible: func(s svc.Service, c int) bool {
			return r.agg.ClusterAdmissible(r.topo, s, c, cons, r.policy())
		},
		CrossingAdmissible: func(a, b int) bool {
			return r.agg.CrossingAdmissible(a, b, cons)
		},
	}
	res, err := router.Route(req)
	if err != nil {
		return nil, err
	}
	// Conservative aggregation means the composed path must satisfy the
	// true constraints; check anyway so a violation surfaces as a loud
	// error instead of silent QoS debt.
	if err := VerifyPath(res.Path, r.prof, cons); err != nil {
		return nil, fmt.Errorf("qos: internal error: composed path violates constraints: %w", err)
	}
	return res.Path, nil
}

// intraSolver resolves child requests exactly under the true QoS constraints:
// routing.IntraSolve over the resolver's converged SCT_P, with the load bound
// deciding which members may provide and the bandwidth bound which hops —
// the relay hop of a service-free child included — may be laid.
type intraSolver struct {
	topo   *hfc.Topology
	states []state.NodeState
	prof   *Profile
	cons   Constraints
}

var _ routing.IntraSolver = (*intraSolver)(nil)

// SolveChild implements routing.IntraSolver.
func (s *intraSolver) SolveChild(child routing.ChildRequest) (*routing.Path, error) {
	if s.topo.ClusterOf(child.Source) != child.Cluster || s.topo.ClusterOf(child.Dest) != child.Cluster {
		return nil, fmt.Errorf("qos: child endpoints (%d,%d) not in cluster %d", child.Source, child.Dest, child.Cluster)
	}
	usable, admissible, oracleErr := s.prof.pruning(s.cons, nil)
	path, err := routing.IntraSolve{
		Members:    s.topo.Members(child.Cluster),
		SCTP:       s.states[child.Resolver].SCTP,
		Usable:     usable,
		Oracle:     s.topo,
		Admissible: admissible,
	}.Solve(child)
	if *oracleErr != nil {
		return nil, fmt.Errorf("qos: bandwidth oracle: %w", *oracleErr)
	}
	return path, err
}
