package routing

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"hfc/internal/hfc"
	"hfc/internal/svc"
)

// CacheKey identifies a routed request: source proxy, destination proxy,
// and the service graph's canonical fingerprint. Distinct graphs with the
// same fingerprint are disambiguated inside the cache by the full canonical
// string, so a (vanishingly unlikely) hash collision degrades to a miss,
// never to a wrong route.
type CacheKey struct {
	Src, Dst int
	SG       uint64
}

// NewCacheKey builds the key for a (source, service graph, destination)
// routing question.
func NewCacheKey(src, dst int, sg *svc.Graph) CacheKey {
	return CacheKey{Src: src, Dst: dst, SG: sg.Fingerprint()}
}

// NewCacheKeyCanonical builds the same key from an already-rendered
// canonical form, skipping the second render Fingerprint would pay for.
// canonical must be sg.Canonical() for the request's graph.
func NewCacheKeyCanonical(src, dst int, canonical string) CacheKey {
	return CacheKey{Src: src, Dst: dst, SG: svc.FingerprintCanonical(canonical)}
}

// shard selects the cache shard for a key by mixing its three components
// with an FNV-ish multiply-xor; the fingerprint alone would collapse all
// (src, dst) variants of one popular service graph onto one shard.
func (k CacheKey) shard(n int) int {
	h := k.SG
	h ^= uint64(uint32(k.Src)) * 0x9e3779b97f4a7c15
	h ^= uint64(uint32(k.Dst)) * 0xc2b2ae3d27d4eb4f
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h % uint64(n))
}

// CacheStats counts cache outcomes.
type CacheStats struct {
	// Hits and Misses count Get outcomes; a stale or collided entry is a
	// miss. Invalidations counts the entries an advance made stale, each
	// when a Get or the generation sweep first meets it; Stores counts Put
	// calls that inserted or replaced an entry.
	Hits, Misses, Invalidations, Stores int64
}

// inlineStamps is how many stamped clusters an entry holds without a second
// allocation; a route depends on three or four.
const inlineStamps = 6

// staleSum is the roundSum of an entry known to be last-known-good only:
// found so by a lookup, or born so — a result an invalidation overtook
// between its computation and its Put. freshLocked tests for it before it
// compares sums, so a sum of clocks that reached it would cost a miss, never
// a stale hit.
const staleSum = ^uint64(0)

// cacheEntry is one stored route, 96 bytes. It is fresh while every cluster
// it is stamped with is still at the round it was stored under and no
// service its graph names has had its clock advanced, last-known-good from
// then on, and gone at the next deployment generation (AdvanceGeneration).
type cacheEntry struct {
	// canonical guards against fingerprint collisions: the full canonical
	// form of the service graph the value was computed for.
	canonical string
	value     any
	// clusters are the distinct clusters the route depends on — inline when
	// they fit — and services the mask of the services its graph names
	// (svc.CanonicalServiceMask). roundSum is the sum of their invalidation
	// clocks when the entry was stored — each cluster's round and each
	// masked bit's service clock — or staleSum. Clocks only move forward, so
	// the sum is still that exactly while none of them has moved.
	clusters []int32
	services uint64
	roundSum uint64
	inline   [inlineStamps]int32
}

// answers is the collision guard: whether the entry was computed for the
// request's graph, given as sg when the caller holds it unrendered, else as
// its canonical form.
func (e *cacheEntry) answers(canonical string, sg *svc.Graph) bool {
	if sg != nil {
		return sg.HasCanonical(e.canonical)
	}
	return e.canonical == canonical
}

// cacheShard is one independently locked segment of the cache. Each shard
// keeps its own copy of the invalidation clocks (cluster rounds and service
// clocks): AdvanceRound/AdvanceServices sweep all shards, while the hot
// Get/Put path touches exactly one shard lock.
type cacheShard struct {
	mu      sync.Mutex
	entries map[CacheKey]*cacheEntry // guarded by mu
	rounds  map[int]uint64           // guarded by mu
	// services[b] is the clock of service-mask bit b.
	services [64]uint64 // guarded by mu
}

// roundSumLocked adds up the invalidation clocks of an entry's stamps: each
// cluster's round and the clock of each bit of its service mask. Called with
// sh.mu held.
//
//hfc:hotpath budget=0
func (sh *cacheShard) roundSumLocked(clusters []int32, services uint64) uint64 {
	var sum uint64
	for _, cl := range clusters {
		sum += sh.rounds[int(cl)]
	}
	for m := services; m != 0; m &= m - 1 {
		sum += sh.services[bits.TrailingZeros64(m)]
	}
	return sum
}

// freshLocked reports whether e may still be served as fresh. Called with
// sh.mu held.
//
//hfc:hotpath budget=0
func (sh *cacheShard) freshLocked(e *cacheEntry) bool {
	return e.roundSum != staleSum && sh.roundSumLocked(e.clusters, e.services) == e.roundSum
}

// DefaultCacheShards is the shard count NewRouteCache uses — enough to keep
// shard-lock collisions rare at realistic request concurrency without
// making the AdvanceRound sweep noticeable.
const DefaultCacheShards = 16

// RouteCache is an invalidation-aware store of resolved routes keyed by
// (source, service-graph fingerprint, destination), and the one place a route
// is kept. An entry is stamped with two kinds of clock: the state round of
// every cluster its path depends on, and the clock of every service its graph
// names (one of 64 bits, svc.Service.MaskBit). Advancing a cluster's round
// (capability change, membership churn) or a set of service clocks (a
// cluster's aggregate gained or lost those services; every clock at once for
// a state distribution sweep, §4) makes exactly the entries stamped with one
// of them stale — plus, for a shared service bit, the entries of the services
// it also stands for: a spare miss, never a stale hit. There is no other
// clock. A stale entry is no longer a hit, but it stays as the
// last-known-good answer for its request (LastKnownGood) until the next Put
// for its key replaces it or the deployment generation moves
// (AdvanceGeneration) — a route is only promised valid against the
// deployment it was computed on — at which point every stale entry is freed.
//
// The cache is sharded by key hash: concurrent Get/Put calls on different
// keys proceed on independent locks, and the outcome counters are atomics,
// so the cache imposes no single serialization point on the request hot
// path. Advances bump the cache-wide version token and then sweep every
// shard under its own lock, preserving the version contract: a Put whose
// token predates any advance is never served fresh.
//
// Cached values are shared between callers and must be treated as
// read-only. The cache itself is safe for concurrent use.
type RouteCache struct {
	shards []cacheShard
	// version counts every advance; Put stores a value computed before the
	// latest advance born stale (see Version). Incremented before the shard
	// sweep so a Put that still observes the old version is guaranteed no
	// newer advance has been signaled (see Put).
	version atomic.Uint64
	// generation is the version the latest AdvanceGeneration moved to: a
	// value computed under an older token belongs to a deployment that is
	// gone, and Put drops it.
	generation atomic.Uint64
	// advanceMu serializes the advances so concurrent ones cannot interleave
	// their shard sweeps (each shard must see advances in one consistent
	// order).
	advanceMu sync.Mutex

	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
	stores        atomic.Int64
}

// NewRouteCache returns an empty cache at round zero everywhere, with
// DefaultCacheShards shards.
func NewRouteCache() *RouteCache { return NewRouteCacheSharded(DefaultCacheShards) }

// NewRouteCacheSharded returns an empty cache with the given shard count
// (values below one select a single shard — the fully serialized layout).
func NewRouteCacheSharded(shards int) *RouteCache {
	if shards < 1 {
		shards = 1
	}
	c := &RouteCache{shards: make([]cacheShard, shards)}
	for i := range c.shards {
		//hfcvet:ignore guardedby construction precedes publication; no concurrent access yet
		c.shards[i].entries = make(map[CacheKey]*cacheEntry)
		//hfcvet:ignore guardedby construction precedes publication; no concurrent access yet
		c.shards[i].rounds = make(map[int]uint64)
	}
	return c
}

// NumShards reports the shard count the cache was built with.
func (c *RouteCache) NumShards() int { return len(c.shards) }

// Get returns the cached value for key, if one exists whose canonical form
// matches and whose cluster and service stamps are all still current. Every
// non-hit is a miss; one that found the entry stale is counted as an
// invalidation.
//
//hfc:hotpath budget=0
func (c *RouteCache) Get(key CacheKey, canonical string) (any, bool) {
	return c.lookup(key, canonical, nil)
}

// GetGraph is Get for a caller that holds the request's service graph and
// has not rendered its canonical form: the collision guard compares sg
// against the stored form in place (svc.Graph.HasCanonical), so a hit
// allocates nothing. key.SG must be sg's fingerprint.
//
//hfc:hotpath budget=0
func (c *RouteCache) GetGraph(key CacheKey, sg *svc.Graph) (any, bool) {
	return c.lookup(key, "", sg)
}

// lookup is the one locked probe behind Get and GetGraph.
//
//hfc:hotpath budget=0
func (c *RouteCache) lookup(key CacheKey, canonical string, sg *svc.Graph) (any, bool) {
	sh := &c.shards[key.shard(len(c.shards))]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[key]
	if !ok || !e.answers(canonical, sg) {
		c.misses.Add(1)
		return nil, false
	}
	if !sh.freshLocked(e) {
		// The entry stays: it is the last-known-good answer now, and the
		// next Put for key overwrites it.
		c.noteStale(e)
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return e.value, true
}

// noteStale counts e as invalidated the first time it is met stale. Called
// with e's shard locked.
func (c *RouteCache) noteStale(e *cacheEntry) {
	if e.roundSum != staleSum {
		e.roundSum = staleSum
		c.invalidations.Add(1)
	}
}

// LastKnownGood is the stale-tolerant door: the value stored for key,
// fresh or not, provided it answers the request's graph — the same collision
// guard as Get's, on sg when non-nil, else on canonical. It is what a caller
// serves, marked degraded, when a fresh resolution is impossible; it moves
// no counter.
func (c *RouteCache) LastKnownGood(key CacheKey, canonical string, sg *svc.Graph) (any, bool) {
	sh := &c.shards[key.shard(len(c.shards))]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[key]
	if !ok || !e.answers(canonical, sg) {
		return nil, false
	}
	return e.value, true
}

// Version returns an opaque token identifying the cache's current
// invalidation state. Capture it BEFORE computing a route and pass it to
// Put: if any round advanced in between, the just-computed route may
// already be stale, and Put stores it born stale instead of stamping old
// data with fresh rounds.
func (c *RouteCache) Version() uint64 { return c.version.Load() }

// Put stores a resolved route under key, stamped with the current rounds of
// the clusters the route depends on (duplicates in clusters are fine) and the
// current clocks of the services canonical names. A later advance of any
// stamped cluster or service makes the entry stale. If the cache advanced
// past the caller's version token since the computation began, the value is
// stored born stale — last-known-good, never a hit — unless a fresh entry
// already answers key; if the deployment generation moved, it is dropped.
//
//hfc:hotpath budget=1
func (c *RouteCache) Put(key CacheKey, canonical string, value any, clusters []int, version uint64) {
	services := svc.CanonicalServiceMask(canonical)
	if services == 0 {
		// A graph that names no service still goes stale with AdvanceAll.
		services = ^uint64(0)
	}
	sh := &c.shards[key.shard(len(c.shards))]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// The version check runs under the shard lock. Advances bump the
	// version BEFORE sweeping shards, so if the token still matches here,
	// every advance signaled since the caller captured it is absent — and
	// any sweep still in flight belongs to an advance whose bump predates
	// the capture, meaning the computation already saw the post-advance
	// state. Stamping then uses either the swept (current) rounds, which
	// is correct, or the pre-sweep rounds, which under-stamps and merely
	// makes the entry stale early. No stale value is ever stored with
	// fresh stamps. The generation is published before its sweep too, so a
	// token older than it is caught here or its entry is swept.
	if version < c.generation.Load() {
		return
	}
	bornStale := version != c.version.Load()
	if old, ok := sh.entries[key]; bornStale && ok && old.answers(canonical, nil) && sh.freshLocked(old) {
		return
	}
	e := &cacheEntry{canonical: canonical, value: value, services: services, roundSum: staleSum}
	e.clusters = e.inline[:0]
	for _, cl := range clusters {
		if !slices.Contains(e.clusters, int32(cl)) {
			//hfcvet:ignore hotalloc grows only past the inline stamps: a route over more than inlineStamps clusters
			e.clusters = append(e.clusters, int32(cl))
		}
	}
	if !bornStale {
		e.roundSum = sh.roundSumLocked(e.clusters, e.services)
	}
	sh.entries[key] = e
	c.stores.Add(1)
}

// RouteClusters appends to dst each cluster a Route result depends on, once,
// for Put to stamp: its children's clusters — both endpoints', and every
// provider's and relay's (what RoutePath hands back beside the path).
func RouteClusters(dst []int, res *Result) []int {
	return appendDistinctClusters(dst, res.Children)
}

// AdvanceRound bumps one cluster's state round: every cached route stamped
// with that cluster goes stale.
func (c *RouteCache) AdvanceRound(cluster int) {
	c.advanceMu.Lock()
	defer c.advanceMu.Unlock()
	// Version first, shard sweep second — see the Put version check.
	c.version.Add(1)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.rounds[cluster]++
		sh.mu.Unlock()
	}
}

// AdvanceServices bumps the clock of every service-mask bit set in mask:
// every cached route whose graph names a service with one of those bits goes
// stale.
//
//hfc:hotpath budget=0
func (c *RouteCache) AdvanceServices(mask uint64) {
	c.advanceMu.Lock()
	defer c.advanceMu.Unlock()
	// Version first, shard sweep second — see the Put version check.
	c.version.Add(1)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for m := mask; m != 0; m &= m - 1 {
			sh.services[bits.TrailingZeros64(m)]++
		}
		sh.mu.Unlock()
	}
}

// AdvanceAll bumps every service clock: every cached route goes stale, since
// every entry's mask has a bit set (a full state-distribution round touches
// every cluster).
func (c *RouteCache) AdvanceAll() { c.AdvanceServices(^uint64(0)) }

// AdvanceMembership stales what a proxy of cluster leaving or rejoining the
// live border elections can change, given the border tables published
// before and after it: the routes through the cluster while its border pairs
// stand, every route once one of them moved — every request's cluster-level
// search crosses clusters at those pairs and measures the links between them.
func (c *RouteCache) AdvanceMembership(cluster int, before, after *hfc.DenseTables) {
	if before != after {
		for o, k := 0, after.K; o < k; o++ {
			if before.BorderInA[cluster*k+o] != after.BorderInA[cluster*k+o] || before.BorderInA[o*k+cluster] != after.BorderInA[o*k+cluster] {
				c.AdvanceAll()
				return
			}
		}
	}
	c.AdvanceRound(cluster)
}

// AdvanceGeneration opens a new deployment generation — some proxy's
// installed services changed. Stale entries were last-known-good against the
// old deployment only, so every one of them is deleted, whether or not its
// request is ever asked again; entries still fresh stay. Making stale what
// the change can affect is the caller's job, before this call: the changed
// proxy's cluster (AdvanceRound), and, once the cluster's aggregate moved,
// the services it gained or lost (AdvanceServices) — a route that avoids the
// cluster still chose its clusters by reading the aggregate for the services
// its graph names.
// A route still being computed on the old deployment is dropped at its Put.
func (c *RouteCache) AdvanceGeneration() {
	c.advanceMu.Lock()
	defer c.advanceMu.Unlock()
	// Version, then generation, then the sweep — see the Put version check.
	c.generation.Store(c.version.Add(1))
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for key, e := range sh.entries {
			if !sh.freshLocked(e) {
				c.noteStale(e)
				delete(sh.entries, key)
			}
		}
		sh.mu.Unlock()
	}
}

// Stats returns a snapshot of the cache counters.
func (c *RouteCache) Stats() CacheStats {
	return CacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Invalidations: c.invalidations.Load(),
		Stores:        c.stores.Load(),
	}
}

// Len returns the number of entries currently stored, fresh and
// last-known-good.
func (c *RouteCache) Len() int {
	total := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		total += len(sh.entries)
		sh.mu.Unlock()
	}
	return total
}
