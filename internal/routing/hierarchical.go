package routing

import (
	"errors"
	"fmt"

	"hfc/internal/hfc"
	"hfc/internal/state"
	"hfc/internal/svc"
)

// RelaxMode selects how the cluster-level shortest-path search accounts for
// distances inside intermediate clusters (§5.1 step 2).
type RelaxMode int

// Relaxation modes. Enums start at one so the zero value is invalid.
const (
	// RelaxBacktrack is the paper's modified DAG-shortest-paths: each
	// label remembers the border proxy through which the path entered its
	// cluster, and relaxing an outgoing external edge adds the internal
	// entry-border→exit-border distance (a lower bound on the eventual
	// intra-cluster path) before the external link length.
	RelaxBacktrack RelaxMode = iota + 1
	// RelaxExact expands the search state to (service, cluster, entry
	// border), which optimizes the same lower-bound objective exactly
	// instead of greedily; used by ablation A3.
	RelaxExact
	// RelaxExternalOnly is the unmodified DAG-shortest-paths the paper
	// argues against: only external link lengths count, so the two
	// candidate paths of the worked example tie at 45.
	RelaxExternalOnly
)

// String returns a short label for the mode.
func (m RelaxMode) String() string {
	switch m {
	case RelaxBacktrack:
		return "backtrack"
	case RelaxExact:
		return "exact"
	case RelaxExternalOnly:
		return "external-only"
	default:
		return fmt.Sprintf("RelaxMode(%d)", int(m))
	}
}

// CSPEntry is one element of a Cluster-level Service Path: a service-graph
// vertex mapped to the cluster that will provide it.
type CSPEntry struct {
	// SGVertex indexes the request's service-graph Services.
	SGVertex int
	// Cluster is the cluster ID the service is mapped to.
	Cluster int
}

// ChildRequest is one piece of a dissected request (§5.1 step 3): a run of
// consecutive services mapped to the same cluster, with intra-cluster
// source and destination proxies (border proxies, except at the original
// endpoints). Services may be empty when the cluster only relays between
// its borders.
type ChildRequest struct {
	// Cluster is the cluster that must resolve this child.
	Cluster int
	// Source and Dest are overlay nodes inside Cluster.
	Source, Dest int
	// Services is the linear run of services to place, in order.
	Services []svc.Service
	// Resolver is the proxy responsible for computing the child path —
	// the child's destination proxy, matching the paper's convention that
	// a request is resolved by its destination.
	Resolver int
}

// IntraSolver resolves a child request inside one cluster using only that
// cluster's full local state (SCT_P plus member coordinates). In the
// in-process simulation it is a direct call; in package overlay it is an
// RPC to the child's resolver proxy.
type IntraSolver interface {
	SolveChild(child ChildRequest) (*Path, error)
}

// HierarchicalRouter performs §5 service routing at a destination proxy,
// using only knowledge that proxy legitimately has: its Fig. 4 topology
// view, its converged SCT_C/SCT_P, and the ability to query the source
// proxy for its cluster ID.
type HierarchicalRouter struct {
	// View is the destination proxy's topology view.
	View *hfc.NodeView
	// State is the destination proxy's converged routing state.
	State *state.NodeState
	// Intra resolves child requests.
	Intra IntraSolver
	// ClusterOfSource answers "which cluster is proxy p in?" — the query
	// pd sends to the source proxy (§5.1 step 1).
	ClusterOfSource func(node int) int
	// Mode selects the cluster-level relaxation (default RelaxBacktrack).
	Mode RelaxMode
	// ClusterAdmissible, when non-nil, restricts which clusters may host a
	// service at the cluster level — the hook the QoS extension uses to
	// enforce aggregated machine-load constraints (§7 future work).
	ClusterAdmissible func(s svc.Service, cluster int) bool
	// CrossingAdmissible, when non-nil, restricts which external links the
	// cluster-level path may use — the QoS hook for aggregated bandwidth
	// constraints.
	CrossingAdmissible func(from, to int) bool
	// Index, when non-nil, answers the per-service cluster-candidate query
	// from an inverted SCT_C index instead of scanning State's aggregate
	// table per service. Built from the same state; results are identical.
	Index *ProviderIndex
}

// Result carries the outcome of a hierarchical routing step, including the
// intermediate artifacts the paper's Fig. 7 walks through.
type Result struct {
	// CSP is the cluster-level service path chosen in step 2.
	CSP []CSPEntry
	// CSPCost is the CSP's lower-bound cost (external links + known
	// internal border distances).
	CSPCost float64
	// Children are the dissected child requests of step 3.
	Children []ChildRequest
	// ChildPaths are the resolved child paths, aligned with Children.
	ChildPaths []*Path
	// Path is the composed final service path (step 4).
	Path *Path
	// Degraded marks a result served from last-known-good state because a
	// fresh resolution was impossible (resolver partitioned or every
	// attempt timed out). The path was valid when computed but may be
	// stale against the current deployment; callers that need freshness
	// must retry once the fault heals. Fresh resolutions never set it.
	Degraded bool
}

// Route runs the full §5 procedure for req.
func (r *HierarchicalRouter) Route(req svc.Request) (*Result, error) {
	if err := r.validate(); err != nil {
		return nil, err
	}
	if err := req.SG.Validate(); err != nil {
		return nil, err
	}
	if req.Dest != r.View.Node {
		return nil, fmt.Errorf("routing: request destination %d is not this proxy %d", req.Dest, r.View.Node)
	}
	srcCluster := r.ClusterOfSource(req.Source)
	destCluster := r.View.ClusterID
	// One border table for the whole route: the search, the dissection and
	// the composed cost must agree on where clusters are crossed, whatever a
	// Dynamic publishes meanwhile.
	dt := r.View.Dense()

	csp, cost, err := r.clusterLevelPath(dt, req, srcCluster, destCluster)
	if err != nil {
		return nil, err
	}
	children := dissect(dt, req, csp, srcCluster, destCluster)
	childPaths := make([]*Path, len(children))
	for i, child := range children {
		p, err := r.Intra.SolveChild(child)
		if err != nil {
			return nil, fmt.Errorf("routing: child %d (cluster %d): %w", i, child.Cluster, err)
		}
		childPaths[i] = p
	}
	final, err := compose(dt, children, childPaths)
	if err != nil {
		return nil, err
	}
	return &Result{
		CSP:        csp,
		CSPCost:    cost,
		Children:   children,
		ChildPaths: childPaths,
		Path:       final,
	}, nil
}

func (r *HierarchicalRouter) validate() error {
	switch {
	case r.View == nil:
		return errors.New("routing: hierarchical router has nil view")
	case r.State == nil:
		return errors.New("routing: hierarchical router has nil state")
	case r.Intra == nil:
		return errors.New("routing: hierarchical router has nil intra-cluster solver")
	case r.ClusterOfSource == nil:
		return errors.New("routing: hierarchical router has nil source-cluster query")
	}
	switch r.Mode {
	case 0, RelaxBacktrack, RelaxExact, RelaxExternalOnly:
	default:
		return fmt.Errorf("routing: unknown relax mode %d", int(r.Mode))
	}
	return nil
}

func (r *HierarchicalRouter) mode() RelaxMode {
	if r.Mode == 0 {
		return RelaxBacktrack
	}
	return r.Mode
}

// dissect splits the original request along the CSP into per-cluster child
// requests (§5.1 step 3): one child per maximal run of CSP entries mapped to
// the same cluster, opened by the source cluster and closed by the
// destination cluster. The children's Services are sub-slices of one
// allocation, and its endpoints are the border proxies dt names.
func dissect(dt *hfc.DenseTables, req svc.Request, csp []CSPEntry, srcCluster, destCluster int) []ChildRequest {
	n, last := 1, srcCluster
	for _, e := range csp {
		if e.Cluster != last {
			n, last = n+1, e.Cluster
		}
	}
	if last != destCluster {
		n++
	}
	children := make([]ChildRequest, 1, n)
	children[0].Cluster = srcCluster
	services := make([]svc.Service, len(csp))
	start := 0
	for i, e := range csp {
		services[i] = req.SG.Services[e.SGVertex]
		if e.Cluster != children[len(children)-1].Cluster {
			children = append(children, ChildRequest{Cluster: e.Cluster})
			start = i
		}
		children[len(children)-1].Services = services[start : i+1 : i+1]
	}
	if last != destCluster {
		children = append(children, ChildRequest{Cluster: destCluster})
	}

	for i := range children {
		child := &children[i]
		child.Source, child.Dest = req.Source, req.Dest
		if i > 0 {
			child.Source, _, _ = crossingFlat(dt, child.Cluster, children[i-1].Cluster)
		}
		if i < len(children)-1 {
			child.Dest, _, _ = crossingFlat(dt, child.Cluster, children[i+1].Cluster)
		}
		child.Resolver = child.Dest
	}
	return children
}

// compose concatenates resolved child paths into the final service path
// (§5.1 step 4). Consecutive children sit in different clusters; the
// external link between their border proxies is implicit in hop adjacency;
// its length is dt's.
func compose(dt *hfc.DenseTables, children []ChildRequest, childPaths []*Path) (*Path, error) {
	if len(children) != len(childPaths) {
		return nil, fmt.Errorf("routing: %d children but %d child paths", len(children), len(childPaths))
	}
	total := 0
	for _, p := range childPaths {
		if p != nil {
			total += len(p.Hops)
		}
	}
	hops := make([]Hop, 0, total)
	cost := 0.0
	for i, p := range childPaths {
		if p == nil || len(p.Hops) == 0 {
			return nil, fmt.Errorf("routing: child %d returned an empty path", i)
		}
		if p.Hops[0].Node != children[i].Source || p.Hops[len(p.Hops)-1].Node != children[i].Dest {
			return nil, fmt.Errorf("routing: child %d path %v does not span %d..%d", i, p, children[i].Source, children[i].Dest)
		}
		hops = append(hops, p.Hops...)
		cost += p.DecisionCost
		if i+1 < len(childPaths) {
			_, _, ext := crossingFlat(dt, children[i].Cluster, children[i+1].Cluster)
			cost += ext
		}
	}
	return &Path{Hops: CompactHops(hops), DecisionCost: cost}, nil
}

// CompactHops removes serviceless hops that duplicate an adjacent hop's
// node (artifacts of child-path concatenation); the endpoints' nodes are
// always preserved because their neighbours share the node. It is the last
// step of compose at every level of the hierarchy, on the concatenation
// compose has just built: it compacts in place and returns a prefix of hops.
func CompactHops(hops []Hop) []Hop {
	out := hops[:0]
	for i, h := range hops {
		if h.Service == "" {
			if len(out) > 0 && out[len(out)-1].Node == h.Node {
				continue
			}
			if i+1 < len(hops) && hops[i+1].Node == h.Node {
				continue
			}
		}
		out = append(out, h)
	}
	return out
}
