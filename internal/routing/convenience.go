package routing

import (
	"errors"
	"fmt"

	"hfc/internal/hfc"
	"hfc/internal/state"
)

// NewHierarchicalRouter wires a §5 router for the destination proxy dest
// from the simulation's global structures, handing it the knowledge dest
// legitimately holds: its Fig. 4 view (the topology's own tables; the
// equivalence tests pin it to the entitlement-bounded View), its converged
// state, a LocalIntraSolver for child requests, and the cluster-ID query
// answered from the clustering assignment (the source proxy would answer it
// in a deployment). It builds no provider index, so it is also the
// member-scan reference the indexed resolver (serve.Engine) is tested
// against.
func NewHierarchicalRouter(topo *hfc.Topology, states []state.NodeState, dest int, mode RelaxMode) (*HierarchicalRouter, error) {
	if topo == nil {
		return nil, errors.New("routing: nil topology")
	}
	if len(states) != topo.N() {
		return nil, fmt.Errorf("routing: %d states for %d nodes", len(states), topo.N())
	}
	if dest < 0 || dest >= topo.N() {
		return nil, fmt.Errorf("routing: destination %d out of range [0,%d)", dest, topo.N())
	}
	view, err := topo.SharedView(dest)
	if err != nil {
		return nil, err
	}
	return &HierarchicalRouter{
		View:            view,
		State:           &states[dest],
		Intra:           &LocalIntraSolver{Topo: topo, States: states},
		ClusterOfSource: topo.ClusterOf,
		Mode:            mode,
	}, nil
}
