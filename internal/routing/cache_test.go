package routing

import (
	"fmt"
	"sync"
	"testing"

	"hfc/internal/svc"
)

func testGraph(t *testing.T, names ...string) *svc.Graph {
	t.Helper()
	services := make([]svc.Service, len(names))
	for i, n := range names {
		services[i] = svc.Service(n)
	}
	g, err := svc.Linear(services...)
	if err != nil {
		t.Fatalf("Linear(%v): %v", names, err)
	}
	return g
}

func TestRouteCacheHitMissLifecycle(t *testing.T) {
	c := NewRouteCache()
	g := testGraph(t, "a", "b", "c")
	key := NewCacheKey(1, 2, g)
	canon := g.Canonical()

	if _, ok := c.Get(key, canon); ok {
		t.Fatal("hit on an empty cache")
	}
	v := c.Version()
	c.Put(key, canon, "route-1", []int{0, 3}, v)
	got, ok := c.Get(key, canon)
	if !ok || got != "route-1" {
		t.Fatalf("Get = (%v, %v), want (route-1, true)", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Stores != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 store", st)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestRouteCachePerClusterInvalidation(t *testing.T) {
	c := NewRouteCache()
	g := testGraph(t, "a", "b")
	canon := g.Canonical()
	kA := NewCacheKey(0, 1, g)
	kB := NewCacheKey(2, 3, g)
	v := c.Version()
	c.Put(kA, canon, "through-0", []int{0}, v)
	c.Put(kB, canon, "through-5", []int{5}, v)

	c.AdvanceRound(0)
	if _, ok := c.Get(kA, canon); ok {
		t.Error("route stamped with cluster 0 survived AdvanceRound(0)")
	}
	if _, ok := c.Get(kB, canon); !ok {
		t.Error("route through an untouched cluster was invalidated")
	}
	st := c.Stats()
	if st.Invalidations != 1 {
		t.Errorf("Invalidations = %d, want 1", st.Invalidations)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d after lazy eviction, want 1", c.Len())
	}
}

func TestRouteCacheAdvanceAllInvalidatesEverything(t *testing.T) {
	c := NewRouteCache()
	g := testGraph(t, "a")
	canon := g.Canonical()
	for i := 0; i < 4; i++ {
		c.Put(NewCacheKey(i, i+1, g), canon, i, []int{i}, c.Version())
	}
	c.AdvanceAll()
	for i := 0; i < 4; i++ {
		if _, ok := c.Get(NewCacheKey(i, i+1, g), canon); ok {
			t.Errorf("entry %d survived AdvanceAll", i)
		}
	}
}

// TestRouteCacheStaleVersionPutDropped is the race guard: a route computed
// BEFORE an invalidation must not be stored AFTER it, or a stale path would
// be stamped with fresh rounds and served forever.
func TestRouteCacheStaleVersionPutDropped(t *testing.T) {
	c := NewRouteCache()
	g := testGraph(t, "a", "b")
	key := NewCacheKey(0, 1, g)
	canon := g.Canonical()

	v := c.Version() // route computation starts here...
	c.AdvanceRound(2)
	c.Put(key, canon, "stale", []int{2}, v) // ...and finishes after the bump
	if _, ok := c.Get(key, canon); ok {
		t.Fatal("stale-version Put was stored")
	}
	if st := c.Stats(); st.Stores != 0 {
		t.Errorf("Stores = %d, want 0 (dropped)", st.Stores)
	}

	// A recapture after the advance is current again and must store.
	c.Put(key, canon, "fresh", []int{2}, c.Version())
	if got, ok := c.Get(key, canon); !ok || got != "fresh" {
		t.Fatalf("Get = (%v, %v) after fresh Put, want (fresh, true)", got, ok)
	}
}

// TestRouteCacheCollisionGuard forces two graphs under one key (same
// fingerprint slot) and checks the canonical form demotes the mismatch to a
// miss rather than returning the wrong route — through both doors, which
// share one lookup: by rendered canonical string and by graph.
func TestRouteCacheCollisionGuard(t *testing.T) {
	c := NewRouteCache()
	g1 := testGraph(t, "a", "b")
	g2 := testGraph(t, "a", "c")
	key := NewCacheKey(0, 1, g1) // pretend g2 collided into g1's key
	c.Put(key, g1.Canonical(), "g1-route", nil, c.Version())
	if _, ok := c.Get(key, g2.Canonical()); ok {
		t.Fatal("canonical mismatch returned a cached route")
	}
	if _, ok := c.GetGraph(key, g2); ok {
		t.Fatal("graph mismatch returned a cached route")
	}
	if got, ok := c.Get(key, g1.Canonical()); !ok || got != "g1-route" {
		t.Fatalf("matching canonical Get = (%v, %v), want (g1-route, true)", got, ok)
	}
	if got, ok := c.GetGraph(key, g1); !ok || got != "g1-route" {
		t.Fatalf("matching GetGraph = (%v, %v), want (g1-route, true)", got, ok)
	}
	if st := c.Stats(); st.Hits != 2 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 2 hits and 2 misses: one outcome per probe, whichever door", st)
	}
}

// TestRouteCacheGetGraphAllocatesNothing is the run-time pin on a cache hit
// through the engine's door: the collision guard renders the request's graph
// into stack scratch and compares in place.
func TestRouteCacheGetGraphAllocatesNothing(t *testing.T) {
	c := NewRouteCache()
	g := testGraph(t, "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9")
	key := NewCacheKey(3, 4, g)
	c.Put(key, g.Canonical(), "route", []int{0, 1, 1, 2}, c.Version())
	if allocs := testing.AllocsPerRun(100, func() {
		if _, ok := c.GetGraph(NewCacheKey(3, 4, g), g); !ok {
			t.Fatal("miss on a stored key")
		}
	}); allocs != 0 {
		t.Errorf("a cache hit by graph allocates %v objects, want 0", allocs)
	}
}

// TestRouteCacheDedupesStampClusters: an entry keeps one stamp per distinct
// cluster in a slice of exactly that size, whether the distinct clusters fit
// Put's stack scratch or spill it.
func TestRouteCacheDedupesStampClusters(t *testing.T) {
	c := NewRouteCache()
	g := testGraph(t, "a", "b")
	canon := g.Canonical()
	many := make([]int, 0, 60)
	for i := 0; i < 60; i++ {
		many = append(many, i%20)
	}
	for i, tc := range []struct {
		clusters []int
		want     int
	}{
		{[]int{1, 1, 2, 1, 2}, 2},
		{nil, 0},
		{many, 20},
	} {
		key := NewCacheKey(i, i+1, g)
		c.Put(key, canon, "r", tc.clusters, c.Version())
		sh := &c.shards[key.shard(len(c.shards))]
		sh.mu.Lock()
		stamps := sh.entries[key].stamps
		sh.mu.Unlock()
		if len(stamps) != tc.want || cap(stamps) != tc.want {
			t.Errorf("clusters %v: stored %d stamps (cap %d), want exactly %d", tc.clusters, len(stamps), cap(stamps), tc.want)
		}
		seen := map[int]bool{}
		for _, s := range stamps {
			if seen[s.cluster] {
				t.Errorf("clusters %v: cluster %d stamped twice", tc.clusters, s.cluster)
			}
			seen[s.cluster] = true
		}
	}
}

// TestRouteCacheShardDistribution checks that realistic key populations
// spread across shards instead of collapsing onto one lock: every shard of
// a 16-shard cache should own some of 4096 distinct (src, dst) keys.
func TestRouteCacheShardDistribution(t *testing.T) {
	c := NewRouteCacheSharded(16)
	g := testGraph(t, "a", "b")
	canon := g.Canonical()
	for src := 0; src < 64; src++ {
		for dst := 0; dst < 64; dst++ {
			if src == dst {
				continue
			}
			c.Put(NewCacheKey(src, dst, g), canon, "r", nil, c.Version())
		}
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n := len(sh.entries)
		sh.mu.Unlock()
		if n == 0 {
			t.Errorf("shard %d holds no entries; key hash is collapsing shards", i)
		}
	}
}

// TestRouteCacheSingleShard pins the degenerate configuration: one shard
// must behave exactly like the pre-sharding cache.
func TestRouteCacheSingleShard(t *testing.T) {
	c := NewRouteCacheSharded(0) // clamps to 1
	if c.NumShards() != 1 {
		t.Fatalf("NumShards = %d, want 1", c.NumShards())
	}
	g := testGraph(t, "a", "b")
	canon := g.Canonical()
	key := NewCacheKey(0, 1, g)
	c.Put(key, canon, "r", []int{3}, c.Version())
	if _, ok := c.Get(key, canon); !ok {
		t.Fatal("miss on a fresh single-shard entry")
	}
	c.AdvanceRound(3)
	if _, ok := c.Get(key, canon); ok {
		t.Fatal("single-shard entry survived AdvanceRound")
	}
}

func TestRouteCacheConcurrentAccess(t *testing.T) {
	c := NewRouteCache()
	g := testGraph(t, "a", "b", "c")
	canon := g.Canonical()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := NewCacheKey(i%16, (i+1)%16, g)
				switch i % 4 {
				case 0:
					c.Put(key, canon, fmt.Sprintf("r%d", i), []int{i % 3}, c.Version())
				case 1:
					c.Get(key, canon)
				case 2:
					c.AdvanceRound(i % 3)
				default:
					c.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	c.AdvanceAll()
	for i := 0; i < 16; i++ {
		if _, ok := c.Get(NewCacheKey(i, (i+1)%16, g), canon); ok {
			t.Fatal("entry survived AdvanceAll after concurrent churn")
		}
	}
}
