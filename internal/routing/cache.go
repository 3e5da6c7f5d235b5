package routing

import (
	"slices"
	"sync"
	"sync/atomic"

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
	// miss. Invalidations counts stale entries evicted by Get; Stores
	// counts Put calls that inserted or replaced an entry.
	Hits, Misses, Invalidations, Stores int64
}

// stamp records the state round of one cluster at the time a route was
// cached. The entry stays valid only while every stamped cluster remains at
// its recorded round.
type stamp struct {
	cluster int
	round   uint64
}

type cacheEntry struct {
	// canonical guards against fingerprint collisions: the full canonical
	// form of the service graph the value was computed for.
	canonical string
	value     any
	stamps    []stamp
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
// keeps its own copy of the invalidation clocks (cluster rounds + global
// epoch): AdvanceRound/AdvanceAll sweep all shards, while the hot Get/Put
// path touches exactly one shard lock.
type cacheShard struct {
	mu      sync.Mutex
	entries map[CacheKey]*cacheEntry // guarded by mu
	rounds  map[int]uint64           // guarded by mu
	global  uint64                   // guarded by mu
}

// effectiveRoundLocked is the invalidation clock of one cluster: its own
// round plus the global epoch. Called with sh.mu held.
func (sh *cacheShard) effectiveRoundLocked(cluster int) uint64 {
	return sh.rounds[cluster] + sh.global
}

// DefaultCacheShards is the shard count NewRouteCache uses — enough to keep
// shard-lock collisions rare at realistic request concurrency without
// making the AdvanceRound sweep noticeable.
const DefaultCacheShards = 16

// RouteCache is an invalidation-aware cache of resolved routes keyed by
// (source, service-graph fingerprint, destination). Entries carry the state
// rounds of the clusters their path traverses; advancing a cluster's round
// (capability change, membership churn) or the global round (a state
// distribution sweep, §4) invalidates exactly the entries that depended on
// it. Stale entries are evicted lazily on lookup.
//
// The cache is sharded by key hash: concurrent Get/Put calls on different
// keys proceed on independent locks, and the outcome counters are atomics,
// so the cache imposes no single serialization point on the request hot
// path. Round advances bump the cache-wide version token and then sweep
// every shard under its own lock, preserving the version contract: a Put
// whose token predates any advance is dropped.
//
// Cached values are shared between callers and must be treated as
// read-only. The cache itself is safe for concurrent use.
type RouteCache struct {
	shards []cacheShard
	// version counts every round advance; Put refuses to store a value
	// computed before the latest advance (see Version). Incremented before
	// the shard sweep so a Put that still observes the old version is
	// guaranteed no newer advance has been signaled (see Put).
	version atomic.Uint64
	// advanceMu serializes AdvanceRound/AdvanceAll so concurrent advances
	// cannot interleave their shard sweeps (each shard must see advances
	// in one consistent order).
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
// matches and whose cluster stamps are all still current. Stale entries are
// evicted and counted as invalidations; every non-hit is a miss.
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
	for _, s := range e.stamps {
		if sh.effectiveRoundLocked(s.cluster) != s.round {
			delete(sh.entries, key)
			c.invalidations.Add(1)
			c.misses.Add(1)
			return nil, false
		}
	}
	c.hits.Add(1)
	return e.value, true
}

// Version returns an opaque token identifying the cache's current
// invalidation state. Capture it BEFORE computing a route and pass it to
// Put: if any round advanced in between, the just-computed route may
// already be stale, and Put discards it instead of stamping old data with
// fresh rounds.
func (c *RouteCache) Version() uint64 { return c.version.Load() }

// Put stores a resolved route under key, stamped with the current rounds of
// the clusters the route depends on, unless the cache advanced past the
// caller's version token since the computation began (then the value is
// dropped — never cached stale). A later advance of any stamped cluster
// makes the entry stale.
func (c *RouteCache) Put(key CacheKey, canonical string, value any, clusters []int, version uint64) {
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
	// invalidates the entry early. No stale value is ever stored with
	// fresh stamps.
	if version != c.version.Load() {
		return
	}
	// clusters lists one id per CSP entry and path hop — some twenty for
	// three or four distinct clusters — and the entry lives as long as the
	// route: stamp the distinct ones in stack scratch, keep an exact copy.
	var scratch [8]stamp
	stamps := scratch[:0]
	for _, cl := range clusters {
		if !slices.ContainsFunc(stamps, func(s stamp) bool { return s.cluster == cl }) {
			stamps = append(stamps, stamp{cluster: cl, round: sh.effectiveRoundLocked(cl)})
		}
	}
	e := &cacheEntry{canonical: canonical, value: value, stamps: make([]stamp, len(stamps))}
	copy(e.stamps, stamps)
	sh.entries[key] = e
	c.stores.Add(1)
}

// RouteClusters lists every cluster a resolved route depends on, for Put to
// stamp — both endpoint clusters, the CSP's provider clusters, and the
// cluster of every hop proxy on the composed path — so the cache entry goes
// stale exactly when one of them advances. Duplicates are fine; Put
// deduplicates.
func RouteClusters(res *Result, req svc.Request, clusterOf func(node int) int) []int {
	var hops []Hop
	if res.Path != nil {
		hops = res.Path.Hops
	}
	out := make([]int, 0, 2+len(res.CSP)+len(hops))
	out = append(out, clusterOf(req.Source), clusterOf(req.Dest))
	for _, entry := range res.CSP {
		out = append(out, entry.Cluster)
	}
	for _, h := range hops {
		out = append(out, clusterOf(h.Node))
	}
	return out
}

// AdvanceRound bumps one cluster's state round, invalidating every cached
// route stamped with that cluster.
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

// AdvanceAll bumps the global epoch, invalidating every cached route (a
// full state-distribution round touches every cluster).
func (c *RouteCache) AdvanceAll() {
	c.advanceMu.Lock()
	defer c.advanceMu.Unlock()
	// Version first, shard sweep second — see the Put version check.
	c.version.Add(1)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.global++
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

// Len returns the number of entries currently stored (stale entries not yet
// evicted included).
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
