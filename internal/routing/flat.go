package routing

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"hfc/internal/svc"
)

// ErrNoProviders is returned when a requested service is installed nowhere
// the router can see.
var ErrNoProviders = errors.New("routing: service has no providers")

// ErrInfeasible is returned when no feasible service path exists.
var ErrInfeasible = errors.New("routing: no feasible service path")

// Oracle supplies decision-time distances between overlay nodes. Distances
// must be non-negative; the shortest-path machinery assumes it.
type Oracle interface {
	Dist(u, v int) float64
}

// OracleFunc adapts a function to the Oracle interface.
type OracleFunc func(u, v int) float64

// Dist implements Oracle.
func (f OracleFunc) Dist(u, v int) float64 { return f(u, v) }

// Expander turns one logical overlay hop into the concrete node sequence
// the topology forces the stream through (endpoints included): mesh relay
// chains, or the border-proxy pair of an HFC inter-cluster hop. A nil
// Expander means every hop is direct.
type Expander interface {
	Expand(u, v int) ([]int, error)
}

// ProviderFunc lists the overlay nodes offering a service, under whatever
// state the routing scheme has (global state for flat schemes, SCT_P for
// intra-cluster routing).
type ProviderFunc func(s svc.Service) []int

// EdgeFilter reports whether routing may lay a logical overlay hop from u
// to v; it is how QoS bandwidth constraints prune the service DAG. A nil
// filter admits everything. Same-node transitions (two services on one
// proxy) are never filtered.
type EdgeFilter func(u, v int) bool

// FindPath computes an optimal service path for req with the global-view
// algorithm of [11]: build the service DAG — virtual source, one vertex per
// (service-graph vertex, provider) pair, virtual sink — and relax its edges
// in service-graph topological order. With a non-negative oracle this
// yields a minimum-cost feasible service path under the oracle's metric.
//
// The returned path's DecisionCost is the DAG cost; hops between distinct
// nodes are expanded through exp when given (relays get empty Service).
func FindPath(req svc.Request, providers ProviderFunc, oracle Oracle, exp Expander) (*Path, error) {
	return FindPathFiltered(req, providers, oracle, exp, nil)
}

// pathScratch is the reusable work arena of one FindPathFiltered call. The
// per-vertex dist/parent tables are flattened into single backing arrays
// indexed through off, and the per-vertex edge buckets keep their capacity
// across calls, so a steady-state resolution allocates only its result.
// Scratches are pooled; every field is re-initialized per call.
type pathScratch struct {
	provs [][]int // provider list per SG vertex (shared slices, not owned)
	off   []int   // off[v] is the flat offset of vertex v; len nv+1

	// Flat tables over all (vertex, provider-index) pairs: the slot of
	// (v, i) is off[v]+i. dist is the best cost from the virtual source;
	// parV/parI track (prevVertex, prevProviderIdx), with parV == -2
	// marking unreached and -1 the virtual source.
	dist []float64
	parV []int
	parI []int

	edges   [][]int // edgesByTail: SG edge heads grouped by tail vertex
	indeg   []int
	outdeg  []int
	queue   []int
	order   []int
	sources []int
	sinks   []int
	revV    []int // reconstruction stack (vertex, provider-index)
	revI    []int

	// chain is the linear service graph of a §5.2 child (IntraSolve.Solve):
	// chainEdges[i] is always the arc i → i+1, so a chain of n services takes
	// its first n−1 and the table only ever grows.
	chain      svc.Graph
	chainEdges [][2]int
}

// linear is svc.Linear built in the scratch: the chain s0 → s1 → … over
// services, which it borrows rather than copies, validated as svc.Linear
// validates it. The graph is good until the scratch is reused.
func (sc *pathScratch) linear(services []svc.Service) (*svc.Graph, error) {
	for i := len(sc.chainEdges); i < len(services)-1; i++ {
		sc.chainEdges = append(sc.chainEdges, [2]int{i, i + 1})
	}
	sc.chain = svc.Graph{Services: services, Edges: sc.chainEdges[:max(len(services)-1, 0)]}
	if err := sc.chain.Validate(); err != nil {
		return nil, err
	}
	return &sc.chain, nil
}

// grow returns buf with length n, reusing its capacity when possible. The
// returned slice's contents are unspecified; callers must overwrite.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

var scratchPool = sync.Pool{New: func() any { return new(pathScratch) }}

// FindPathFiltered is FindPath with an admissibility filter on overlay
// hops: DAG edges whose endpoints fail the filter are not relaxed, so the
// result is the minimum-cost service path using admissible hops only. It
// returns ErrInfeasible when the filter disconnects every configuration.
//
// The search runs on a pooled scratch arena, so concurrent and repeated
// calls do per-request work without per-request table allocations; results
// are identical to a fresh-allocation run (asserted by FuzzFindPathScratch).
//
//hfc:hotpath budget=0
func FindPathFiltered(req svc.Request, providers ProviderFunc, oracle Oracle, exp Expander, admissible EdgeFilter) (*Path, error) {
	sc := scratchPool.Get().(*pathScratch)
	defer scratchPool.Put(sc)
	return findPathScratch(req, providers, oracle, exp, admissible, sc)
}

// findPathScratch is the FindPathFiltered implementation against an
// explicit scratch arena (tests pass fresh arenas to compare against pooled
// runs).
func findPathScratch(req svc.Request, providers ProviderFunc, oracle Oracle, exp Expander, admissible EdgeFilter, sc *pathScratch) (*Path, error) {
	if providers == nil {
		return nil, errors.New("routing: nil provider function")
	}
	if oracle == nil {
		return nil, errors.New("routing: nil oracle")
	}
	if err := req.SG.Validate(); err != nil {
		return nil, err
	}
	return sc.search(req, providers, oracle, exp, admissible)
}

// search is the DAG search of [11] over a request whose graph has been
// validated and whose provider function and oracle are set.
//
//hfc:hotpath budget=18
func (sc *pathScratch) search(req svc.Request, providers ProviderFunc, oracle Oracle, exp Expander, admissible EdgeFilter) (*Path, error) {
	hopOK := func(u, v int) bool {
		return u == v || admissible == nil || admissible(u, v)
	}

	sg := req.SG
	nv := sg.Len()

	// Provider lists per service-graph vertex, and the flat offsets.
	sc.provs = grow(sc.provs, nv)
	sc.off = grow(sc.off, nv+1)
	total := 0
	for v := 0; v < nv; v++ {
		sc.off[v] = total
		sc.provs[v] = providers(sg.Services[v])
		if len(sc.provs[v]) == 0 {
			return nil, fmt.Errorf("routing: service %q: %w", sg.Services[v], ErrNoProviders)
		}
		total += len(sc.provs[v])
	}
	sc.off[nv] = total

	sc.dist = grow(sc.dist, total)
	sc.parV = grow(sc.parV, total)
	sc.parI = grow(sc.parI, total)
	inf := math.Inf(1)
	for i := 0; i < total; i++ {
		sc.dist[i] = inf
		sc.parV[i] = -2
	}

	// Degrees, sources and sinks, and edges grouped by tail — one pass
	// over the SG edge list into reused buckets.
	sc.indeg = grow(sc.indeg, nv)
	sc.outdeg = grow(sc.outdeg, nv)
	sc.edges = grow(sc.edges, nv)
	for v := 0; v < nv; v++ {
		sc.indeg[v] = 0
		sc.outdeg[v] = 0
		sc.edges[v] = sc.edges[v][:0]
	}
	for _, e := range sg.Edges {
		sc.edges[e[0]] = append(sc.edges[e[0]], e[1])
		sc.indeg[e[1]]++
		sc.outdeg[e[0]]++
	}
	sc.sources = sc.sources[:0]
	sc.sinks = sc.sinks[:0]
	for v := 0; v < nv; v++ {
		if sc.indeg[v] == 0 {
			sc.sources = append(sc.sources, v)
		}
		if sc.outdeg[v] == 0 {
			sc.sinks = append(sc.sinks, v)
		}
	}

	// Initialize SG source vertices from the virtual source (req.Source).
	for _, v := range sc.sources {
		base := sc.off[v]
		for i, p := range sc.provs[v] {
			if !hopOK(req.Source, p) {
				continue
			}
			var d float64
			if p != req.Source {
				d = oracle.Dist(req.Source, p)
			}
			if d < sc.dist[base+i] {
				sc.dist[base+i] = d
				sc.parV[base+i] = -1
				sc.parI[base+i] = -1
			}
		}
	}

	// Topological order of the SG vertices (Kahn, consuming indeg).
	sc.queue = sc.queue[:0]
	sc.queue = append(sc.queue, sc.sources...)
	sc.order = sc.order[:0]
	for head := 0; head < len(sc.queue); head++ {
		u := sc.queue[head]
		sc.order = append(sc.order, u)
		for _, v := range sc.edges[u] {
			sc.indeg[v]--
			if sc.indeg[v] == 0 {
				sc.queue = append(sc.queue, v)
			}
		}
	}
	if len(sc.order) != nv {
		return nil, errors.New("routing: service graph contains a cycle")
	}

	// Relax SG edges in topological order of the service graph.
	for _, u := range sc.order {
		baseU := sc.off[u]
		for i, p := range sc.provs[u] {
			du := sc.dist[baseU+i]
			if math.IsInf(du, 1) {
				continue
			}
			for _, v := range sc.edges[u] {
				baseV := sc.off[v]
				for j, q := range sc.provs[v] {
					if !hopOK(p, q) {
						continue
					}
					var d float64
					if p != q {
						d = oracle.Dist(p, q)
					}
					if nd := du + d; nd < sc.dist[baseV+j] {
						sc.dist[baseV+j] = nd
						sc.parV[baseV+j] = u
						sc.parI[baseV+j] = i
					}
				}
			}
		}
	}

	// Terminate at the virtual sink (req.Dest) from SG sink vertices.
	bestCost := math.Inf(1)
	bestV, bestI := -1, -1
	for _, v := range sc.sinks {
		base := sc.off[v]
		for i, p := range sc.provs[v] {
			if math.IsInf(sc.dist[base+i], 1) || !hopOK(p, req.Dest) {
				continue
			}
			var d float64
			if p != req.Dest {
				d = oracle.Dist(p, req.Dest)
			}
			if c := sc.dist[base+i] + d; c < bestCost {
				bestCost = c
				bestV, bestI = v, i
			}
		}
	}
	if bestV == -1 {
		return nil, ErrInfeasible
	}

	// Reconstruct the (service, node) sequence.
	sc.revV = sc.revV[:0]
	sc.revI = sc.revI[:0]
	for v, i := bestV, bestI; v != -1; {
		sc.revV = append(sc.revV, v)
		sc.revI = append(sc.revI, i)
		slot := sc.off[v] + i
		v, i = sc.parV[slot], sc.parI[slot]
	}
	// The hop sequence escapes into the result; allocate it exactly once.
	hops := make([]Hop, 0, len(sc.revV)+2)
	hops = append(hops, Hop{Node: req.Source})
	for idx := len(sc.revV) - 1; idx >= 0; idx-- {
		v, i := sc.revV[idx], sc.revI[idx]
		hops = append(hops, Hop{Node: sc.provs[v][i], Service: sg.Services[v]})
	}
	hops = append(hops, Hop{Node: req.Dest})

	expanded, err := expandHops(hops, exp)
	if err != nil {
		return nil, err
	}
	return &Path{Hops: expanded, DecisionCost: bestCost}, nil
}

// expandHops inserts topology-mandated relay nodes between consecutive hops
// on distinct nodes.
func expandHops(hops []Hop, exp Expander) ([]Hop, error) {
	if exp == nil {
		return hops, nil
	}
	out := []Hop{hops[0]}
	for i := 1; i < len(hops); i++ {
		prev, cur := hops[i-1], hops[i]
		if prev.Node == cur.Node {
			out = append(out, cur)
			continue
		}
		seq, err := exp.Expand(prev.Node, cur.Node)
		if err != nil {
			return nil, fmt.Errorf("routing: expanding hop %d->%d: %w", prev.Node, cur.Node, err)
		}
		if len(seq) < 2 || seq[0] != prev.Node || seq[len(seq)-1] != cur.Node {
			return nil, fmt.Errorf("routing: expander returned invalid sequence %v for hop %d->%d", seq, prev.Node, cur.Node)
		}
		for _, relay := range seq[1 : len(seq)-1] {
			out = append(out, Hop{Node: relay})
		}
		out = append(out, cur)
	}
	return out, nil
}

// CapabilityProviders builds a ProviderFunc over an explicit capability
// assignment: providers of s are all nodes whose set contains s, in index
// order. This models full global service-capability state.
func CapabilityProviders(caps []svc.CapabilitySet) ProviderFunc {
	return func(s svc.Service) []int {
		var out []int
		for i, set := range caps {
			if set.Has(s) {
				out = append(out, i)
			}
		}
		return out
	}
}
