// Package svc models the composable-services layer of the paper (§2.1):
// uniquely named services statically installed on proxies, per-proxy service
// capability sets, and service graphs (SGs) — the linear or non-linear
// dependency DAGs that a service request must satisfy. A request is a source
// proxy, an SG, and a destination proxy; a feasible configuration is any
// service sequence along an SG path from a source service to a sink service
// (Fig. 2).
package svc

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Service is a unique service name, e.g. "watermark" or "s17". The paper
// assumes each service can be uniquely named (§1).
type Service string

// Catalog is the universe of deployable services.
type Catalog struct {
	names []Service
}

// NewCatalog builds a synthetic catalog of n services named "s0" … "s{n-1}".
func NewCatalog(n int) (*Catalog, error) {
	if n < 1 {
		return nil, fmt.Errorf("svc: catalog size %d must be >= 1", n)
	}
	names := make([]Service, n)
	for i := range names {
		names[i] = Service(fmt.Sprintf("s%d", i))
	}
	return &Catalog{names: names}, nil
}

// CatalogOf wraps an explicit service list, rejecting duplicates and empty
// names.
func CatalogOf(names ...Service) (*Catalog, error) {
	if len(names) == 0 {
		return nil, errors.New("svc: empty catalog")
	}
	seen := make(map[Service]bool, len(names))
	for _, s := range names {
		if s == "" {
			return nil, errors.New("svc: empty service name")
		}
		if seen[s] {
			return nil, fmt.Errorf("svc: duplicate service %q", s)
		}
		seen[s] = true
	}
	return &Catalog{names: append([]Service(nil), names...)}, nil
}

// Len returns the catalog size.
func (c *Catalog) Len() int { return len(c.names) }

// Services returns a copy of the catalog's service list.
func (c *Catalog) Services() []Service { return append([]Service(nil), c.names...) }

// At returns the i-th service.
func (c *Catalog) At(i int) Service { return c.names[i] }

// CapabilitySet is the set of services installed on one proxy — its SCI
// (service capability information). The zero value is not usable; make sets
// with NewCapabilitySet.
type CapabilitySet map[Service]struct{}

// NewCapabilitySet builds a set from the given services.
func NewCapabilitySet(services ...Service) CapabilitySet {
	s := make(CapabilitySet, len(services))
	for _, x := range services {
		s[x] = struct{}{}
	}
	return s
}

// Add inserts a service.
func (s CapabilitySet) Add(x Service) { s[x] = struct{}{} }

// Has reports membership.
func (s CapabilitySet) Has(x Service) bool {
	_, ok := s[x]
	return ok
}

// Len returns the set size.
func (s CapabilitySet) Len() int { return len(s) }

// Clone returns an independent copy.
func (s CapabilitySet) Clone() CapabilitySet {
	out := make(CapabilitySet, len(s))
	for x := range s {
		out[x] = struct{}{}
	}
	return out
}

// UnionInto adds every service of other into s. This is the SCI aggregation
// operation from §4 footnote 5: a cluster's aggregate service set is the
// union of its members' sets.
func (s CapabilitySet) UnionInto(other CapabilitySet) {
	for x := range other {
		s[x] = struct{}{}
	}
}

// Union returns the union of the given sets as a new set.
func Union(sets ...CapabilitySet) CapabilitySet {
	out := make(CapabilitySet)
	for _, s := range sets {
		out.UnionInto(s)
	}
	return out
}

// Sorted returns the members in lexicographic order (for deterministic
// output and messages).
func (s CapabilitySet) Sorted() []Service {
	out := make([]Service, 0, len(s))
	for x := range s {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Equal reports whether two sets have identical membership.
func (s CapabilitySet) Equal(other CapabilitySet) bool {
	if len(s) != len(other) {
		return false
	}
	for x := range s {
		if !other.Has(x) {
			return false
		}
	}
	return true
}

// String renders the set as "{a, b, c}" in sorted order.
func (s CapabilitySet) String() string {
	parts := make([]string, 0, len(s))
	for _, x := range s.Sorted() {
		parts = append(parts, string(x))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Graph is a service graph (SG): a DAG over service instances expressing
// dependency constraints. Vertices are indices into Services; an edge (i,j)
// means Services[i] must immediately precede Services[j] in the composed
// path. Source vertices (no incoming edges) are the places a configuration
// may start; sink vertices (no outgoing edges) are where it must end.
//
// A linear SG s0 → s1 → … → sk has exactly one configuration; a non-linear
// SG may have several (Fig. 2b).
type Graph struct {
	// Services holds the vertex labels. The same service name may appear
	// at most once; the paper's SGs request distinct processing steps.
	Services []Service
	// Edges are dependency arcs between vertex indices.
	Edges [][2]int
}

// Linear builds the SG s0 → s1 → … for the given sequence.
func Linear(services ...Service) (*Graph, error) {
	g := &Graph{Services: append([]Service(nil), services...)}
	if len(services) > 1 {
		g.Edges = make([][2]int, len(services)-1)
		for i := range g.Edges {
			g.Edges[i] = [2]int{i, i + 1}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// stackServices and stackEdges bound the graphs Validate checks in stack
// scratch (the paper's requests name at most ~12 services); above either it
// takes the same scratch from the heap, with identical results.
const (
	stackServices = 32
	stackEdges    = 64
)

// Validate checks structural sanity: at least one service, unique non-empty
// names, in-range acyclic edges. Every resolve entry point calls it on a
// caller-owned graph whose fields may have changed since the last call, so
// it keeps no memo; on the success path it does not allocate (pinned by
// TestGraphFrontMatterAllocatesNothing).
//
//hfc:hotpath budget=0
func (g *Graph) Validate() error {
	if g == nil {
		return errors.New("svc: nil service graph")
	}
	n, m := len(g.Services), len(g.Edges)
	if n == 0 {
		return errors.New("svc: empty service graph")
	}
	// Unique names: pairwise on the stack path, a set above it.
	var seen map[Service]bool
	if n > stackServices {
		//hfcvet:ignore hotalloc heap fallback above the stack bound
		seen = make(map[Service]bool, n)
	}
	for i, s := range g.Services {
		if s == "" {
			//hfcvet:ignore hotalloc error path: a rejected graph is not resolved
			return fmt.Errorf("svc: service %d has empty name", i)
		}
		var dup bool
		if seen != nil {
			dup, seen[s] = seen[s], true
		} else {
			dup = slices.Contains(g.Services[:i], s)
		}
		if dup {
			//hfcvet:ignore hotalloc error path: a rejected graph is not resolved
			return fmt.Errorf("svc: duplicate service %q in graph", s)
		}
	}
	// One scratch block carved into the CSR row starts (n+1), the indegrees
	// (n), Kahn's queue (n) and the CSR edge heads (m).
	var stack [3*stackServices + 1 + stackEdges]int32
	scratch := stack[:]
	if n > stackServices || m > stackEdges {
		//hfcvet:ignore hotalloc heap fallback above the stack bound
		scratch = make([]int32, 3*n+1+m)
	}
	start, indeg, queue, heads := scratch[:n+1], scratch[n+1:2*n+1], scratch[2*n+1:3*n+1], scratch[3*n+1:3*n+1+m]
	for _, e := range g.Edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
			//hfcvet:ignore hotalloc error path: a rejected graph is not resolved
			return fmt.Errorf("svc: edge %v out of range [0,%d)", e, n)
		}
		if e[0] == e[1] {
			//hfcvet:ignore hotalloc error path: a rejected graph is not resolved
			return fmt.Errorf("svc: self-loop on service %q", g.Services[e[0]])
		}
		start[e[0]+1]++
		indeg[e[1]]++
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	// Row v of the CSR is heads[start[v]:start[v+1]]. Until Kahn needs it,
	// the queue holds each row's fill cursor.
	copy(queue, start[:n])
	for _, e := range g.Edges {
		heads[queue[e[0]]] = int32(e[1])
		queue[e[0]]++
	}
	// Kahn's algorithm detects cycles.
	tail := 0
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue[tail] = int32(v)
			tail++
		}
	}
	for head := 0; head < tail; head++ {
		u := queue[head]
		for _, v := range heads[start[u]:start[u+1]] {
			indeg[v]--
			if indeg[v] == 0 {
				queue[tail] = v
				tail++
			}
		}
	}
	if tail != n {
		return errors.New("svc: service graph contains a cycle")
	}
	return nil
}

// Len returns the number of service vertices.
func (g *Graph) Len() int { return len(g.Services) }

// IsLinear reports whether the SG is a single chain (every configuration
// visits every service).
func (g *Graph) IsLinear() bool {
	n := len(g.Services)
	if len(g.Edges) != n-1 {
		return false
	}
	return len(g.Sources()) == 1 && len(g.Sinks()) == 1 && len(g.Configurations()) == 1
}

// Sources returns the vertex indices with no incoming edges — the "source
// services" a configuration may start from.
func (g *Graph) Sources() []int {
	indeg := make([]int, len(g.Services))
	for _, e := range g.Edges {
		indeg[e[1]]++
	}
	var out []int
	for v, d := range indeg {
		if d == 0 {
			out = append(out, v)
		}
	}
	return out
}

// Sinks returns the vertex indices with no outgoing edges — the "sink
// services" a configuration must end at.
func (g *Graph) Sinks() []int {
	outdeg := make([]int, len(g.Services))
	for _, e := range g.Edges {
		outdeg[e[0]]++
	}
	var out []int
	for v, d := range outdeg {
		if d == 0 {
			out = append(out, v)
		}
	}
	return out
}

// Configurations enumerates every feasible configuration: each path from a
// source vertex to a sink vertex, as a slice of vertex indices. The count is
// exponential in the worst case; the SGs in this system are small (≤ ~12
// services), matching the paper's request lengths.
func (g *Graph) Configurations() [][]int {
	adj := make([][]int, len(g.Services))
	for _, e := range g.Edges {
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	sinks := make(map[int]bool)
	for _, v := range g.Sinks() {
		sinks[v] = true
	}
	var out [][]int
	var path []int
	var dfs func(v int)
	dfs = func(v int) {
		path = append(path, v)
		if sinks[v] {
			out = append(out, append([]int(nil), path...))
		}
		for _, w := range adj[v] {
			dfs(w)
		}
		path = path[:len(path)-1]
	}
	for _, s := range g.Sources() {
		dfs(s)
	}
	return out
}

// ServicesOf maps a configuration (vertex indices) to service names.
func (g *Graph) ServicesOf(config []int) []Service {
	out := make([]Service, len(config))
	for i, v := range config {
		out[i] = g.Services[v]
	}
	return out
}

// String renders the SG as "s0->s1, s0->s2, ..." (or a single service).
func (g *Graph) String() string {
	if len(g.Edges) == 0 {
		names := make([]string, len(g.Services))
		for i, s := range g.Services {
			names[i] = string(s)
		}
		return strings.Join(names, ",")
	}
	parts := make([]string, len(g.Edges))
	for i, e := range g.Edges {
		parts[i] = fmt.Sprintf("%s->%s", g.Services[e[0]], g.Services[e[1]])
	}
	return strings.Join(parts, ", ")
}

// Request is a service request: find a service path from the source proxy
// through the SG to the destination proxy (§2.2). Source may equal Dest:
// the path is then a round trip that starts and ends at that proxy, and it
// costs 0 — every hop on the proxy — when the proxy provides the whole SG.
type Request struct {
	// Source and Dest are overlay node indices.
	Source, Dest int
	// SG is the dependency graph the path must satisfy.
	SG *Graph
}

// Validate checks the request against an overlay of n proxies.
func (r Request) Validate(n int) error {
	if r.Source < 0 || r.Source >= n {
		return fmt.Errorf("svc: source proxy %d out of range [0,%d)", r.Source, n)
	}
	if r.Dest < 0 || r.Dest >= n {
		return fmt.Errorf("svc: destination proxy %d out of range [0,%d)", r.Dest, n)
	}
	if err := r.SG.Validate(); err != nil {
		return err
	}
	return nil
}
