package routing

import (
	"errors"
	"fmt"
	"slices"
	"sync"

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

// Validate rejects a mode outside the enum. The zero value is valid: a router
// reads it as RelaxBacktrack.
func (m RelaxMode) Validate() error {
	switch m {
	case 0, RelaxBacktrack, RelaxExact, RelaxExternalOnly:
		return nil
	}
	return fmt.Errorf("routing: unknown relax mode %d", int(m))
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
	// Services is the linear run of services to place, in order. The child an
	// IntraSolver is handed borrows it from the route's scratch: it is valid
	// until SolveChild returns, and a solver that keeps or sends the child
	// copies it first. The Children of a Result own theirs.
	Services []svc.Service
	// Resolver is the proxy responsible for computing the child path —
	// the child's destination proxy, matching the paper's convention that
	// a request is resolved by its destination.
	Resolver int
}

// IntraSolver resolves a child request inside one cluster using only that
// cluster's full local state (SCT_P plus member coordinates). In the
// in-process simulation it is a direct call; in package overlay it is an
// RPC to the child's resolver proxy. child.Services is on loan for the call
// (see ChildRequest); the returned path is the caller's.
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

// Result carries the outcome of a hierarchical routing step. Route fills
// every field: the composed path and the intermediate artifacts the paper's
// Fig. 7 walks through. A result that started at RoutePath — what
// serve.Engine computes, caches and hands out — carries Path, CSPCost and
// Degraded only; its CSP, Children and ChildPaths are nil.
type Result struct {
	// CSP is the cluster-level service path chosen in step 2 (Route only).
	CSP []CSPEntry
	// CSPCost is the CSP's lower-bound cost (external links + known
	// internal border distances).
	CSPCost float64
	// Children are the dissected child requests of step 3 (Route only).
	Children []ChildRequest
	// ChildPaths are the resolved child paths, aligned with Children (Route
	// only).
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

// routeScratch is the arena of one §5 resolve: the label tables of the
// cluster-level search and every intermediate of steps 2–3 — the CSP, the
// dissected children with their one run of services, the child paths, the
// uncompacted concatenation of their hops — none of which outlives the call
// unless Route copies it out. Scratches are pooled; every field is
// re-initialized per resolve.
type routeScratch struct {
	search     cspScratch
	csp        []CSPEntry
	children   []ChildRequest
	services   []svc.Service
	childPaths []*Path
	hops       []Hop
}

var routePool = sync.Pool{New: func() any { return new(routeScratch) }}

// release returns sc to the pool, dropping what it borrowed or was handed:
// the request's service names and the child paths.
func (sc *routeScratch) release() {
	clear(sc.services)
	clear(sc.childPaths)
	clear(sc.hops[:cap(sc.hops)])
	routePool.Put(sc)
}

// route is the §5 procedure, written once: the cluster-level search (steps
// 1–2), the dissection (step 3), the child solves and the composition (step
// 4). It returns the composed path and the CSP's cost; the Fig. 7 artifacts
// stay in sc for the exit that wants them.
//
//hfc:hotpath budget=0
func (r *HierarchicalRouter) route(req svc.Request, sc *routeScratch) (*Path, float64, error) {
	if err := r.validate(); err != nil {
		return nil, 0, err
	}
	if err := req.SG.Validate(); err != nil {
		return nil, 0, err
	}
	if req.Dest != r.View.Node {
		//hfcvet:ignore hotalloc cold misrouted-request error path
		return nil, 0, fmt.Errorf("routing: request destination %d is not this proxy %d", req.Dest, r.View.Node)
	}
	srcCluster := r.ClusterOfSource(req.Source)
	destCluster := r.View.ClusterID
	// One border table for the whole route: the search, the dissection and
	// the composed cost must agree on where clusters are crossed, whatever a
	// Dynamic publishes meanwhile.
	dt := r.View.Dense()

	cost, err := r.clusterLevelPath(dt, req, srcCluster, destCluster, sc)
	if err != nil {
		return nil, 0, err
	}
	sc.dissect(dt, req, srcCluster, destCluster)
	sc.childPaths = grow(sc.childPaths, len(sc.children))
	for i, child := range sc.children {
		p, err := r.Intra.SolveChild(child)
		if err != nil {
			//hfcvet:ignore hotalloc cold child-failure error path
			return nil, 0, fmt.Errorf("routing: child %d (cluster %d): %w", i, child.Cluster, err)
		}
		sc.childPaths[i] = p
	}
	final, err := sc.compose(dt)
	if err != nil {
		return nil, 0, err
	}
	return final, cost, nil
}

// Route runs the full §5 procedure for req and copies the Fig. 7 artifacts
// out of the scratch: the result owns everything it references.
func (r *HierarchicalRouter) Route(req svc.Request) (*Result, error) {
	sc := routePool.Get().(*routeScratch)
	defer sc.release()
	final, cost, err := r.route(req, sc)
	if err != nil {
		return nil, err
	}
	res := &Result{
		CSP:        slices.Clone(sc.csp),
		CSPCost:    cost,
		Children:   slices.Clone(sc.children),
		ChildPaths: slices.Clone(sc.childPaths),
		Path:       final,
	}
	// The children's Services are windows into one run; so are the copy's.
	services := slices.Clone(sc.services)
	off := 0
	for i := range res.Children {
		if n := len(res.Children[i].Services); n > 0 {
			res.Children[i].Services = services[off : off+n : off+n]
			off += n
		}
	}
	return res, nil
}

// RoutePath runs the same procedure for a caller that wants what the stream
// gets (§5.1 step 4): the composed path, the CSP's cost and — appended to
// clusters — each cluster the route depends on, once. Those are the
// children's clusters: the endpoints' and every provider's and relay's, so
// the set a route cache stamps (RouteCache.Put).
//
//hfc:hotpath budget=0
func (r *HierarchicalRouter) RoutePath(req svc.Request, clusters []int) (*Path, float64, []int, error) {
	sc := routePool.Get().(*routeScratch)
	defer sc.release()
	final, cost, err := r.route(req, sc)
	if err != nil {
		return nil, 0, clusters, err
	}
	return final, cost, appendDistinctClusters(clusters, sc.children), nil
}

// appendDistinctClusters appends each child's cluster to dst unless dst
// holds it already.
//
//hfc:hotpath budget=0
func appendDistinctClusters(dst []int, children []ChildRequest) []int {
	for i := range children {
		if c := children[i].Cluster; !slices.Contains(dst, c) {
			//hfcvet:ignore hotalloc grows only past the caller's buffer: a route over more clusters than it sized for
			dst = append(dst, c)
		}
	}
	return dst
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
	return r.Mode.Validate()
}

func (r *HierarchicalRouter) mode() RelaxMode {
	if r.Mode == 0 {
		return RelaxBacktrack
	}
	return r.Mode
}

// dissect splits the original request along sc.csp into per-cluster child
// requests (§5.1 step 3), left in sc.children: one child per maximal run of
// CSP entries mapped to the same cluster, opened by the source cluster and
// closed by the destination cluster. The children's Services are windows
// into sc.services (nil on a relay-only child), and their endpoints are the
// border proxies dt names.
//
//hfc:hotpath budget=0
func (sc *routeScratch) dissect(dt *hfc.DenseTables, req svc.Request, srcCluster, destCluster int) {
	n, last := 1, srcCluster
	for _, e := range sc.csp {
		if e.Cluster != last {
			n, last = n+1, e.Cluster
		}
	}
	if last != destCluster {
		n++
	}
	sc.children = grow(sc.children, n)[:1]
	sc.children[0] = ChildRequest{Cluster: srcCluster}
	sc.services = grow(sc.services, len(sc.csp))
	start := 0
	for i, e := range sc.csp {
		sc.services[i] = req.SG.Services[e.SGVertex]
		if e.Cluster != sc.children[len(sc.children)-1].Cluster {
			//hfcvet:ignore hotalloc children was grown to the child count above; append never reallocates
			sc.children = append(sc.children, ChildRequest{Cluster: e.Cluster})
			start = i
		}
		sc.children[len(sc.children)-1].Services = sc.services[start : i+1 : i+1]
	}
	if last != destCluster {
		//hfcvet:ignore hotalloc children was grown to the child count above; append never reallocates
		sc.children = append(sc.children, ChildRequest{Cluster: destCluster})
	}

	for i := range sc.children {
		child := &sc.children[i]
		child.Source, child.Dest = req.Source, req.Dest
		if i > 0 {
			child.Source, _, _ = crossingFlat(dt, child.Cluster, sc.children[i-1].Cluster)
		}
		if i < len(sc.children)-1 {
			child.Dest, _, _ = crossingFlat(dt, child.Cluster, sc.children[i+1].Cluster)
		}
		child.Resolver = child.Dest
	}
}

// compose concatenates the resolved child paths into the final service path
// (§5.1 step 4). Consecutive children sit in different clusters; the
// external link between their border proxies is implicit in hop adjacency;
// its length is dt's. The concatenation is laid out and compacted in
// sc.hops, so the path keeps an array of exactly its own length.
//
//hfc:hotpath budget=1
func (sc *routeScratch) compose(dt *hfc.DenseTables) (*Path, error) {
	children, childPaths := sc.children, sc.childPaths
	if len(children) != len(childPaths) {
		//hfcvet:ignore hotalloc cold internal-error path
		return nil, fmt.Errorf("routing: %d children but %d child paths", len(children), len(childPaths))
	}
	sc.hops = sc.hops[:0]
	cost := 0.0
	for i, p := range childPaths {
		if p == nil || len(p.Hops) == 0 {
			//hfcvet:ignore hotalloc cold malformed-child error path
			return nil, fmt.Errorf("routing: child %d returned an empty path", i)
		}
		if p.Hops[0].Node != children[i].Source || p.Hops[len(p.Hops)-1].Node != children[i].Dest {
			//hfcvet:ignore hotalloc cold malformed-child error path
			return nil, fmt.Errorf("routing: child %d path %v does not span %d..%d", i, p, children[i].Source, children[i].Dest)
		}
		//hfcvet:ignore hotalloc hops retains capacity across pooled runs
		sc.hops = append(sc.hops, p.Hops...)
		cost += p.DecisionCost
		if i+1 < len(childPaths) {
			_, _, ext := crossingFlat(dt, children[i].Cluster, children[i+1].Cluster)
			cost += ext
		}
	}
	return &Path{Hops: slices.Clone(CompactHops(sc.hops)), DecisionCost: cost}, nil
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
