// Package serve is the concurrent route-serving engine: it answers §5
// service-routing requests against one bootstrapped HFC overlay at high
// request concurrency. Three mechanisms carry the load:
//
//   - a sharded, invalidation-aware route cache (routing.RouteCache), so
//     concurrent lookups on different keys never contend on one lock — and
//     the one store of routes: an entry is a hit while fresh and the
//     last-known-good answer of degraded serving once stale;
//   - inverted provider indexes (routing.LazyIndexes), one half per
//     capability table, built on first use and kept until an update replaces
//     that table, so resolution looks providers up instead of rescanning
//     capability tables per request;
//   - in-flight deduplication: identical concurrent (source, destination,
//     service-graph) resolutions share one computation instead of racing to
//     compute the same route N times.
//
// Capability updates and cluster invalidations run under a writer lock and
// bump the cache's version clock, so a resolution never returns a route
// computed against state older than the resolution's own start.
package serve

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"hfc/internal/hfc"
	"hfc/internal/par"
	"hfc/internal/routing"
	"hfc/internal/state"
	"hfc/internal/svc"
)

// Config tunes an Engine.
type Config struct {
	// Relax selects the cluster-level relaxation mode (default
	// RelaxBacktrack).
	Relax routing.RelaxMode
}

// Stats is a snapshot of the engine's serving counters.
type Stats struct {
	// Cache aggregates the route-cache outcomes.
	Cache routing.CacheStats
	// Resolutions counts full §5 computations performed.
	Resolutions int64
	// Deduped counts resolutions answered by joining another caller's
	// in-flight computation of the same request.
	Deduped int64
	// Degraded counts resolutions answered with a last-known-good route
	// because the destination proxy was marked unavailable (or resolution
	// failed while nodes were unavailable); see SetUnavailable.
	Degraded int64
	// UnavailableNodes is how many proxies are currently marked
	// unavailable.
	UnavailableNodes int
}

// ErrUnavailable is returned when a request's destination proxy is marked
// unavailable and no last-known-good route exists to serve degraded.
var ErrUnavailable = errors.New("serve: destination unavailable")

// flightKey identifies one deduplicatable computation: the route-cache key
// plus the cache version the computation was admitted under. Versioning the
// key means a caller only ever joins a computation at least as fresh as its
// own start — after an invalidation, late arrivals start a new computation
// instead of adopting a pre-invalidation result.
type flightKey struct {
	key     routing.CacheKey
	version uint64
}

// flightCall is one joined in-flight resolution. A leader marks its flight
// with a nil entry; the first caller to join makes the call and its channel
// under the engine's flight lock, so a miss nobody joins — nearly every one —
// makes no record. The leader takes the entry out of the flight map and, if
// a joiner made it, writes res and err exactly once and closes done; joiners
// read them only after <-done.
type flightCall struct {
	res  *routing.Result
	err  error
	done chan struct{}
}

// Engine serves routing requests concurrently over one HFC overlay.
// Resolution is read-side (shared); capability updates are writer-side and
// invalidate exactly the cache entries and indexes they affect.
type Engine struct {
	topo  *hfc.Topology
	relax routing.RelaxMode
	// clusterOf is topo.ClusterOf, bound once: a method value made per miss
	// is an allocation per miss.
	clusterOf func(node int) int

	// stateMu orders resolutions against state mutation: every resolution
	// computes under the read side, every mutation (UpdateCapability)
	// rewrites states and advances the cache version under the write side.
	stateMu sync.RWMutex
	caps    []svc.CapabilitySet // guarded by stateMu
	// states is updated in place (state.Update stores new tables into the
	// elements, header immutable), so the solver and index structures that
	// captured the slice at construction observe every update.
	states []state.NodeState // guarded by stateMu

	cache   *routing.RouteCache
	indexes *routing.LazyIndexes
	solver  *routing.LocalIntraSolver

	// views caches each destination proxy's shared topology view, attached
	// to avail and built on first use. Concurrent first builds are
	// idempotent.
	views []atomic.Pointer[hfc.NodeView]

	flightMu sync.Mutex
	flight   map[flightKey]*flightCall // guarded by flightMu

	// avail is the availability set, kept where the border elections that
	// depend on it are: a proxy an external failure detector reports
	// partitioned/unreachable (SetUnavailable) has left it. Fresh
	// resolutions exclude such a proxy from provider selection and cross
	// clusters at the closest pair of available proxies, and requests
	// destined to it are served the cache's last-known-good route, tagged
	// degraded. unavailN counts the proxies that have left.
	avail    *hfc.Dynamic
	unavailN atomic.Int64

	resolutions atomic.Int64
	deduped     atomic.Int64
	degraded    atomic.Int64
}

// NewEngine builds an engine over a bootstrapped topology with converged
// states. caps[i] is the deployment of proxy i (cloned; the engine owns its
// copy). states must be the matching state.Distribute output; the engine
// copies the slice and points its elements at new tables on every update —
// the tables the caller's states reference are never edited. States that are
// not shaped like the topology (a table slot per cluster member and per
// cluster, states[i] the state of node i) are rejected.
func NewEngine(topo *hfc.Topology, caps []svc.CapabilitySet, states []state.NodeState, cfg Config) (*Engine, error) {
	if topo == nil {
		return nil, errors.New("serve: nil topology")
	}
	if len(states) != topo.N() {
		return nil, fmt.Errorf("serve: %d states for %d nodes", len(states), topo.N())
	}
	if len(caps) != topo.N() {
		return nil, fmt.Errorf("serve: %d capability sets for %d nodes", len(caps), topo.N())
	}
	// Tables are indexed by member rank and cluster id all the way down (the
	// provider indexes, the child solves, state.Update), so their shape is
	// checked here, once, and not inside a resolve.
	for i := range states {
		st := &states[i]
		if st.Node != i {
			return nil, fmt.Errorf("serve: states[%d] is the state of node %d", i, st.Node)
		}
		if m := len(topo.Members(topo.ClusterOf(i))); len(st.SCTP) != m {
			return nil, fmt.Errorf("serve: node %d: SCT_P has %d slots, its cluster %d members", i, len(st.SCTP), m)
		}
		if len(st.SCTC) != topo.NumClusters() {
			return nil, fmt.Errorf("serve: node %d: SCT_C has %d slots, the topology %d clusters", i, len(st.SCTC), topo.NumClusters())
		}
	}
	if cfg.Relax == 0 {
		cfg.Relax = routing.RelaxBacktrack
	}
	if err := cfg.Relax.Validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	capsClone := make([]svc.CapabilitySet, len(caps))
	for i, c := range caps {
		capsClone[i] = c.Clone()
	}
	// The states slice header is fixed here; UpdateCapability stores new
	// tables into its elements, so the indexes and solver built over it
	// always observe the current state.
	statesCopy := append([]state.NodeState(nil), states...)
	cache := routing.NewRouteCache()
	// No version: the engine replaces tables (UpdateCapability), never edits
	// one, and forgets the replaced table's half itself.
	indexes := routing.NewLazyIndexes(statesCopy, func(node int) []int {
		return topo.Members(topo.ClusterOf(node))
	}, nil)
	e := &Engine{
		topo:      topo,
		relax:     cfg.Relax,
		clusterOf: topo.ClusterOf,
		caps:      capsClone,
		states:    statesCopy,
		cache:     cache,
		indexes:   indexes,
		solver:    &routing.LocalIntraSolver{Topo: topo, States: statesCopy, Indexes: indexes},
		views:     make([]atomic.Pointer[hfc.NodeView], topo.N()),
		flight:    make(map[flightKey]*flightCall),
		avail:     hfc.NewDynamic(topo),
	}
	e.solver.Exclude = e.IsUnavailable
	e.solver.ExcludeAny = func() bool { return e.unavailN.Load() > 0 }
	return e, nil
}

// view returns dest's cached topology view, building it on first use.
func (e *Engine) view(dest int) (*hfc.NodeView, error) {
	if v := e.views[dest].Load(); v != nil {
		return v, nil
	}
	v, err := e.avail.SharedView(dest)
	if err != nil {
		return nil, err
	}
	// A concurrent builder may have won; either view is identical.
	e.views[dest].CompareAndSwap(nil, v)
	return e.views[dest].Load(), nil
}

// Resolve answers one service request, returning the composed path.
//
//hfc:hotpath budget=0
func (e *Engine) Resolve(req svc.Request) (*routing.Path, error) {
	res, err := e.ResolveDetailed(req)
	if err != nil {
		return nil, err
	}
	return res.Path, nil
}

// ResolveDetailed answers one service request with the result the engine
// keeps: the composed path, the CSP's cost and the degraded mark. Its CSP,
// Children and ChildPaths are nil — the Fig. 7 artifacts are steps on the way
// to the path, and ResolveExplain is who hands them out.
// Identical concurrent requests share one computation; repeated requests
// are answered from the route cache until an update invalidates a cluster
// their path depends on. The returned result is shared and read-only.
//
// req.SG is the caller's and may have changed since its last resolve, so
// every call validates and fingerprints it afresh — in stack scratch: a
// cache hit allocates nothing (TestEngineResolveHitAllocatesNothing).
//
//hfc:hotpath budget=0
func (e *Engine) ResolveDetailed(req svc.Request) (*routing.Result, error) {
	if err := req.Validate(e.topo.N()); err != nil {
		return nil, err
	}
	return e.resolveKeyed(req, routing.NewCacheKey(req.Source, req.Dest, req.SG))
}

// resolveKeyed is resolution past validation and cache-key construction:
// the degraded check, cache lookup, in-flight dedup, and computation.
// Callers guarantee req is valid and key is req's.
//
//hfc:hotpath budget=0
func (e *Engine) resolveKeyed(req svc.Request, key routing.CacheKey) (*routing.Result, error) {
	if !e.avail.Present(req.Dest) {
		// The destination resolver is unreachable, so a fresh §5
		// computation (which that proxy would perform) is impossible.
		// Serve the last-known-good route tagged degraded — stale may be
		// slower, never wrong — or report the outage.
		if res := e.degradedResult(key, req.SG); res != nil {
			return res, nil
		}
		return nil, ErrUnavailable
	}
	if v, ok := e.cache.GetGraph(key, req.SG); ok {
		return v.(*routing.Result), nil
	}
	version := e.cache.Version()
	fk := flightKey{key: key, version: version}
	e.flightMu.Lock()
	if c, ok := e.flight[fk]; ok {
		if c == nil {
			//hfcvet:ignore hotalloc only a second caller of a request in flight makes the record
			c = &flightCall{done: make(chan struct{})}
			e.flight[fk] = c
		}
		e.flightMu.Unlock()
		// Join the in-flight computation. No locks are held while waiting;
		// the version in fk guarantees the leader started no earlier than
		// this caller's current view of the cache, so the shared result is
		// never older than this call.
		<-c.done
		if c.err != nil {
			return nil, c.err
		}
		e.deduped.Add(1)
		return c.res, nil
	}
	e.flight[fk] = nil
	e.flightMu.Unlock()

	res, err := e.compute(req, key, version)
	if err != nil && e.unavailN.Load() > 0 {
		// Resolution failed while nodes are marked unavailable — likely
		// every provider of some service sits behind the partition. Fall
		// back to the last-known-good route; waiters share the copy.
		if lkg := e.degradedResult(key, req.SG); lkg != nil {
			res, err = lkg, nil
		}
	}
	e.flightMu.Lock()
	c := e.flight[fk]
	delete(e.flight, fk)
	e.flightMu.Unlock()
	if c != nil {
		c.res, c.err = res, err
		close(c.done)
	}
	return res, err
}

// compute performs the full hierarchical resolution under the state read
// lock and stores what it serves — the path, nothing it took to find it — in
// the cache: fresh, or born stale if an invalidation overtook the
// computation (then only this call's waiters and degraded serving see it).
// The canonical form is rendered here, once per miss.
func (e *Engine) compute(req svc.Request, key routing.CacheKey, version uint64) (*routing.Result, error) {
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	r, err := e.routerLocked(req.Dest)
	if err != nil {
		return nil, err
	}
	var stamps [8]int
	res, clusters, err := r.RoutePath(req, stamps[:0])
	e.resolutions.Add(1)
	if err != nil {
		return nil, err
	}
	e.cache.Put(key, req.SG.Canonical(), res, clusters, version)
	return res, nil
}

// routerLocked assembles dest's §5 router over the engine's current state:
// the one place a converged-state router is built. The caller holds stateMu's
// read side for as long as it uses the router.
func (e *Engine) routerLocked(dest int) (routing.HierarchicalRouter, error) {
	view, err := e.view(dest)
	if err != nil {
		return routing.HierarchicalRouter{}, err
	}
	return routing.HierarchicalRouter{
		View:            view,
		State:           &e.states[dest],
		Intra:           e.solver,
		ClusterOfSource: e.clusterOf,
		Mode:            e.relax,
		Index:           e.indexes.For(dest),
	}, nil
}

// ResolveExplain answers one service request with the Fig. 7 artifacts a
// cache entry does not keep — the CSP, the child requests and their paths —
// beside the composed path, by running the router a cache miss runs. It is
// the explained answer, not a serving path: it neither reads nor fills the
// route cache and counts nothing in Stats. A destination marked unavailable
// cannot run the computation, so it reports ErrUnavailable.
func (e *Engine) ResolveExplain(req svc.Request) (*routing.Result, error) {
	if err := req.Validate(e.topo.N()); err != nil {
		return nil, err
	}
	if !e.avail.Present(req.Dest) {
		return nil, ErrUnavailable
	}
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	r, err := e.routerLocked(req.Dest)
	if err != nil {
		return nil, err
	}
	return r.Route(req)
}

// degradedResult returns a degraded-tagged copy of the last-known-good
// result for (key, sg) — nil if the cache holds none, or if what sits under
// key answers a different graph with the same fingerprint — counting the
// degraded serve. The stored result stays untouched — callers own the copy's
// top level.
func (e *Engine) degradedResult(key routing.CacheKey, sg *svc.Graph) *routing.Result {
	v, ok := e.cache.LastKnownGood(key, "", sg)
	if !ok {
		return nil
	}
	cp := *v.(*routing.Result)
	cp.Degraded = true
	e.degraded.Add(1)
	return &cp
}

// SetUnavailable marks (down=true) or clears (down=false) a proxy as
// unavailable, as driven by an external failure detector — e.g. the overlay's
// accrual health score quarantining a gray node. While marked, the proxy is
// excluded from provider selection and border election in fresh resolutions —
// its cluster's border pairs are re-elected among the proxies still available
// — and requests destined to it are served their last-known-good route,
// tagged degraded. Each transition stales the cached routes through the
// proxy's cluster, and every cached route if it moved one of the cluster's
// border pairs: each request's cluster-level search crosses clusters at
// those pairs (routing.RouteCache.AdvanceMembership).
func (e *Engine) SetUnavailable(node int, down bool) error {
	if node < 0 || node >= e.topo.N() {
		return fmt.Errorf("serve: node %d out of range [0,%d)", node, e.topo.N())
	}
	before := e.avail.Table()
	var err error
	if down {
		err = e.avail.Leave(node)
	} else {
		err = e.avail.Rejoin(node)
	}
	if errors.Is(err, hfc.ErrNoChange) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if down {
		e.unavailN.Add(1)
	} else {
		e.unavailN.Add(-1)
	}
	e.cache.AdvanceMembership(e.topo.ClusterOf(node), before, e.avail.Table())
	return nil
}

// IsUnavailable reports whether a proxy is currently marked unavailable.
// Out-of-range IDs report available.
func (e *Engine) IsUnavailable(node int) bool {
	return node >= 0 && node < e.topo.N() && !e.avail.Present(node)
}

// UnavailableNodes lists the proxies currently marked unavailable, ascending.
func (e *Engine) UnavailableNodes() []int {
	var out []int
	for i := 0; i < e.topo.N(); i++ {
		if !e.avail.Present(i) {
			out = append(out, i)
		}
	}
	return out
}

// batchGroup is one distinct request within a batch: the representative
// request, every batch position that asked for it, and the resolution
// artifacts computed once for the whole group. Groups sharing a service
// graph but differing in endpoints chain through next (duplicates in real
// streams share the whole request, so chains are almost always length 1 and
// the dedup probe stays a one-word map lookup).
type batchGroup struct {
	req         svc.Request
	idxs        []int
	next        int32
	destCluster int
	key         routing.CacheKey
	res         *routing.Result
	err         error
}

// batchScratch is the reusable grouping arena of ResolveBatchDetailed;
// pooled so steady-state batch calls do not rebuild the map or regrow the
// group, permutation, and index slices.
type batchScratch struct {
	bySG  map[*svc.Graph]int32
	order []batchGroup
	perm  []int32
}

// appendGroup opens a new group for (req, first batch position i), reusing
// the retained index-slice capacity of the slot the group lands in.
func (sc *batchScratch) appendGroup(req svc.Request, i int) int32 {
	gi := int32(len(sc.order))
	var idxs []int
	if len(sc.order) < cap(sc.order) {
		idxs = sc.order[: gi+1 : gi+1][gi].idxs[:0]
	}
	sc.order = append(sc.order, batchGroup{req: req, idxs: append(idxs, i), next: -1})
	return gi
}

var batchPool = sync.Pool{
	New: func() any { return &batchScratch{bySG: make(map[*svc.Graph]int32)} },
}

// ResolveBatch answers a batch of requests, amortizing per-request overhead
// across duplicates: requests with the same (source, destination,
// service-graph) resolve once and share the result. See
// ResolveBatchDetailed.
func (e *Engine) ResolveBatch(reqs []svc.Request, workers int) ([]*routing.Path, []error) {
	results, errs := e.ResolveBatchDetailed(reqs, workers)
	paths := make([]*routing.Path, len(results))
	for i, res := range results {
		if res != nil {
			paths[i] = res.Path
		}
	}
	return paths, errs
}

// ResolveBatchDetailed answers a batch of requests with full §5 results,
// aligned with reqs; each request succeeds or fails independently, exactly
// as a loop over ResolveDetailed would, but with the per-request overhead
// amortized across the batch:
//
//   - service graphs are validated and fingerprinted once per distinct
//     request, not once per batch position (streams cycling a request pool
//     share graph values);
//   - identical requests are grouped by cache key and resolved once, the
//     shared read-only result scattered to every position — no flight-map
//     round trip per duplicate;
//   - groups resolve in destination-cluster order, so consecutive
//     resolutions on a worker reuse the same hot view, provider index, and
//     router scratch (the routing pools are per-P; sorted order keeps them
//     warm) instead of ping-ponging between destinations.
//
// workers is the fan-out over distinct groups (1 or less = serial; see
// par.ForN). In-batch sharing does not count toward
// Stats.Deduped (it never enters the flight map); concurrent callers outside
// the batch dedup against it as usual.
//
//hfc:hotpath budget=5
func (e *Engine) ResolveBatchDetailed(reqs []svc.Request, workers int) ([]*routing.Result, []error) {
	results := make([]*routing.Result, len(reqs))
	errs := make([]error, len(reqs))
	sc := batchPool.Get().(*batchScratch)
	sc.order = sc.order[:0]
	clear(sc.bySG)
	for i := range reqs {
		req := &reqs[i]
		if gi, ok := sc.bySG[req.SG]; ok {
			for {
				g := &sc.order[gi]
				if g.req.Source == req.Source && g.req.Dest == req.Dest {
					//hfcvet:ignore hotalloc per-group index list retains capacity across pooled batch calls
					g.idxs = append(g.idxs, i)
					gi = -1
					break
				}
				if g.next < 0 {
					break
				}
				gi = g.next
			}
			if gi < 0 {
				continue
			}
			// Same graph, different endpoints: chain a sibling group.
			sc.order[gi].next = sc.appendGroup(*req, i)
			continue
		}
		sc.bySG[req.SG] = sc.appendGroup(*req, i)
	}
	// Per-group front matter, once per distinct request instead of once per
	// batch position: validation and cache-key hashing.
	n := e.topo.N()
	for gi := range sc.order {
		g := &sc.order[gi]
		if err := g.req.Validate(n); err != nil {
			g.err = err
			continue
		}
		g.destCluster = e.topo.ClusterOf(g.req.Dest)
		g.key = routing.NewCacheKey(g.req.Source, g.req.Dest, g.req.SG)
	}
	// Deterministic, locality-friendly resolution order regardless of the
	// batch's arrival order: consecutive groups on a worker share the same
	// destination's hot view, provider index, and pooled router scratch.
	// Sorting a permutation keeps the comparator's swaps to int32s instead
	// of the fat group structs (whose slice addresses the chains hold).
	sc.perm = sc.perm[:0]
	for gi := range sc.order {
		//hfcvet:ignore hotalloc permutation retains capacity across pooled batch calls
		sc.perm = append(sc.perm, int32(gi))
	}
	slices.SortFunc(sc.perm, func(a, b int32) int {
		ga, gb := &sc.order[a], &sc.order[b]
		if ga.destCluster != gb.destCluster {
			return ga.destCluster - gb.destCluster
		}
		if ga.req.Dest != gb.req.Dest {
			return ga.req.Dest - gb.req.Dest
		}
		if ga.req.Source != gb.req.Source {
			return ga.req.Source - gb.req.Source
		}
		// Same endpoints, different graphs: any fixed order serves.
		return cmp.Or(cmp.Compare(ga.key.SG, gb.key.SG), cmp.Compare(a, b))
	})
	par.ForN(len(sc.perm), workers, func(j int) {
		g := &sc.order[sc.perm[j]]
		if g.err != nil {
			return
		}
		g.res, g.err = e.resolveKeyed(g.req, g.key)
	})
	for gi := range sc.order {
		g := &sc.order[gi]
		for _, i := range g.idxs {
			results[i], errs[i] = g.res, g.err
		}
		// Drop result references before pooling; keep idxs capacity.
		g.res, g.err, g.req = nil, nil, svc.Request{}
	}
	batchPool.Put(sc)
	return results, errs
}

// UpdateCapability replaces one proxy's installed services and re-converges
// the engine's routing state the way §4 does — inside the proxy's cluster:
// state.Update replaces that cluster's SCT_P and, only if the cluster's
// aggregate changed, the SCT_C; the provider-index halves of the replaced
// tables are forgotten and every other cluster's stay. Cached routes through
// the cluster go stale, and, if the aggregate changed, so do the routes whose
// graph names a service it gained or lost. The write lock is held for that,
// not for a distribution over all n proxies.
// Resolutions in flight either complete against the old state (and their
// cache entries are invalidated here) or observe the new state in full —
// never a mix.
//
//hfc:hotpath budget=2
func (e *Engine) UpdateCapability(node int, set svc.CapabilitySet) error {
	if node < 0 || node >= e.topo.N() {
		return fmt.Errorf("serve: node %d out of range [0,%d)", node, e.topo.N())
	}
	if set == nil {
		return errors.New("serve: nil capability set")
	}
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	e.caps[node] = set.Clone()
	oldSCTP, oldSCTC := e.states[node].SCTP, e.states[node].SCTC
	aggregateChanged := state.Update(e.topo, e.caps, e.states, node)
	e.indexes.Forget(oldSCTP)
	// Version bump after the state swap: a resolution admitted after this
	// line computes on the new states; one admitted before is either fully
	// finished (its cache entry invalidated by this advance if it depends
	// on what changed) or blocked on the read lock and will see the new
	// states in full.
	//
	// A route that avoids this cluster re-solves the same children, and its
	// cluster-level search reads SCT_C only for the services its graph names:
	// past the routes through the cluster, the ones that can change are those
	// that ask for a service the aggregate gained or lost.
	c := e.topo.ClusterOf(node)
	e.cache.AdvanceRound(c)
	if aggregateChanged {
		e.indexes.Forget(oldSCTC)
		e.cache.AdvanceServices(symmetricDifferenceMask(oldSCTC[c], e.states[node].SCTC[c]))
	}
	// Last-known-good routes were validated against the old deployment;
	// degraded serving promises stale-but-valid, so every stale route goes.
	e.cache.AdvanceGeneration()
	return nil
}

// symmetricDifferenceMask is the service mask (svc.Service.MaskBit) of the
// services in exactly one of a and b.
func symmetricDifferenceMask(a, b svc.CapabilitySet) uint64 {
	var mask uint64
	for s := range a {
		if !b.Has(s) {
			mask |= s.MaskBit()
		}
	}
	for s := range b {
		if !a.Has(s) {
			mask |= s.MaskBit()
		}
	}
	return mask
}

// InvalidateCluster drops every cached route depending on one cluster, as
// after an external state change in that cluster.
func (e *Engine) InvalidateCluster(cluster int) {
	e.cache.AdvanceRound(cluster)
}

// InvalidateAll drops every cached route, as after a full
// state-distribution round: it advances every service clock, and every
// cached route is stamped with at least one.
func (e *Engine) InvalidateAll() {
	e.cache.AdvanceAll()
}

// Capabilities returns a snapshot (deep copy) of the current deployments.
func (e *Engine) Capabilities() []svc.CapabilitySet {
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	out := make([]svc.CapabilitySet, len(e.caps))
	for i, c := range e.caps {
		out[i] = c.Clone()
	}
	return out
}

// Topology exposes the engine's HFC topology.
func (e *Engine) Topology() *hfc.Topology { return e.topo }

// Stats snapshots the serving counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Cache:            e.cache.Stats(),
		Resolutions:      e.resolutions.Load(),
		Deduped:          e.deduped.Load(),
		Degraded:         e.degraded.Load(),
		UnavailableNodes: int(e.unavailN.Load()),
	}
}
