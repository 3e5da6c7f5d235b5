package routing

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"hfc/internal/hfc"
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
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2: a stale entry stays as last-known-good until the generation moves", c.Len())
	}
	if got, ok := c.LastKnownGood(kA, canon, nil); !ok || got != "through-0" {
		t.Errorf("LastKnownGood(stale) = (%v, %v), want (through-0, true)", got, ok)
	}
}

// TestRouteCacheAdvanceAllInvalidatesEverything: AdvanceAll advances every
// service clock, so even a one-service graph's route goes stale.
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

// TestRouteCacheAdvanceServices: advancing a set of service clocks stales
// exactly the entries whose graph names a service with one of those bits — a
// route avoiding every stamped cluster included — and no other; a canonical
// form that does not parse is stamped with every bit.
func TestRouteCacheAdvanceServices(t *testing.T) {
	c := NewRouteCache()
	graphs := []*svc.Graph{
		testGraph(t, "s0"), testGraph(t, "s1", "s2"), testGraph(t, "s3", "s0", "s4"),
		testGraph(t, "x:y;|"), testGraph(t, "s5"),
	}
	const malformed = "1:s0;" // no '|'
	put := func() {
		for i, g := range graphs {
			c.Put(NewCacheKey(i, i+1, g), g.Canonical(), i, []int{i}, c.Version())
		}
		c.Put(CacheKey{Src: 9, Dst: 10, SG: 1}, malformed, "malformed", []int{9}, c.Version())
	}
	put()
	for _, moved := range []svc.Service{"s0", "s2", "x:y;|", "absent"} {
		c.AdvanceServices(moved.MaskBit())
		for i, g := range graphs {
			names := slices.ContainsFunc(g.Services, func(s svc.Service) bool { return s.MaskBit() == moved.MaskBit() })
			if _, fresh := c.Get(NewCacheKey(i, i+1, g), g.Canonical()); fresh == names {
				t.Errorf("after AdvanceServices(%q): graph %v fresh = %v", moved, g.Services, fresh)
			}
		}
		if _, fresh := c.Get(CacheKey{Src: 9, Dst: 10, SG: 1}, malformed); fresh {
			t.Errorf("after AdvanceServices(%q): the malformed form is fresh", moved)
		}
		put()
	}
}

// TestRouteCacheEntrySizeClass pins a cached route's entry to the 96-byte
// size class: a service mask beside the cluster stamps took a word, and the
// stale mark gave it back by living in the stamp sum.
func TestRouteCacheEntrySizeClass(t *testing.T) {
	if size := unsafe.Sizeof(cacheEntry{}); size > 96 {
		t.Errorf("cacheEntry is %d bytes, want <= 96", size)
	}
}

// TestRouteCacheAdvanceMembership: a membership change that leaves a
// cluster's border pairs standing stales the routes through the cluster; one
// that moves a pair in the cluster's row or column stales every route.
func TestRouteCacheAdvanceMembership(t *testing.T) {
	const k = 3
	table := func(edit func(b []int32)) *hfc.DenseTables {
		b := []int32{-1, 10, 20, 11, -1, 21, 12, 22, -1}
		edit(b)
		return &hfc.DenseTables{K: k, BorderInA: b}
	}
	base := table(func([]int32) {})
	g := testGraph(t, "a")
	for _, tc := range []struct {
		name     string
		after    *hfc.DenseTables
		staleAll bool
	}{
		{"same table", base, false},
		{"an equal copy", table(func([]int32) {}), false},
		{"a pair of another cluster moved", table(func(b []int32) { b[1*k+2] = 99 }), false},
		{"the cluster's row moved", table(func(b []int32) { b[0*k+1] = 99 }), true},
		{"the cluster's column moved", table(func(b []int32) { b[2*k+0] = 99 }), true},
	} {
		c := NewRouteCache()
		for cl := 0; cl < k; cl++ {
			c.Put(NewCacheKey(cl, cl+1, g), g.Canonical(), cl, []int{cl}, c.Version())
		}
		c.AdvanceMembership(0, base, tc.after)
		for cl := 0; cl < k; cl++ {
			_, fresh := c.Get(NewCacheKey(cl, cl+1, g), g.Canonical())
			if want := cl != 0 && !tc.staleAll; fresh != want {
				t.Errorf("%s: route through cluster %d fresh = %v, want %v", tc.name, cl, fresh, want)
			}
		}
	}
}

// TestRouteCacheOvertakenPutIsBornStale is the race guard: a route computed
// BEFORE an invalidation and stored AFTER it must never be a hit — or a stale
// path would be stamped with fresh rounds and served forever — but it is
// still the last-known-good answer; one computed before a deployment
// generation is dropped outright; and neither displaces a fresh entry.
func TestRouteCacheOvertakenPutIsBornStale(t *testing.T) {
	c := NewRouteCache()
	g := testGraph(t, "a", "b")
	key := NewCacheKey(0, 1, g)
	canon := g.Canonical()

	v := c.Version() // route computation starts here...
	c.AdvanceRound(2)
	c.Put(key, canon, "overtaken", []int{2}, v) // ...and finishes after the bump
	if _, ok := c.Get(key, canon); ok {
		t.Fatal("a Put under a stale version is served fresh")
	}
	if got, ok := c.LastKnownGood(key, canon, nil); !ok || got != "overtaken" {
		t.Fatalf("LastKnownGood = (%v, %v), want (overtaken, true)", got, ok)
	}

	// A recapture after the advance is current again and must store.
	c.Put(key, canon, "fresh", []int{2}, c.Version())
	if got, ok := c.Get(key, canon); !ok || got != "fresh" {
		t.Fatalf("Get = (%v, %v) after fresh Put, want (fresh, true)", got, ok)
	}
	// An older computation finishing late does not displace it.
	c.Put(key, canon, "overtaken", []int{2}, v)
	if got, ok := c.Get(key, canon); !ok || got != "fresh" {
		t.Fatalf("Get = (%v, %v) after a late overtaken Put, want (fresh, true)", got, ok)
	}

	// A computation the deployment generation overtook is not even
	// last-known-good.
	other := NewCacheKey(2, 3, g)
	v = c.Version()
	c.AdvanceGeneration()
	c.Put(other, canon, "old-deployment", []int{2}, v)
	if got, ok := c.LastKnownGood(other, canon, nil); ok {
		t.Fatalf("LastKnownGood = %v for a route computed on the previous deployment", got)
	}
}

// TestRouteCacheGenerationSweepFreesStaleRoutes: routes nobody asks for
// again are freed all the same. Stale entries stay as last-known-good until
// the deployment generation moves, then every one of them goes at once.
func TestRouteCacheGenerationSweepFreesStaleRoutes(t *testing.T) {
	c := NewRouteCache()
	g := testGraph(t, "a", "b")
	canon := g.Canonical()
	const n = 300
	avoiding := 0
	for i := 0; i < n; i++ {
		clusters := []int{i % 3, (i / 3) % 3} // one or two of clusters 0, 1, 2
		if clusters[0] != 1 && clusters[1] != 1 {
			avoiding++
		}
		c.Put(NewCacheKey(i, i+1, g), canon, i, clusters, c.Version())
	}
	c.AdvanceRound(1)
	if c.Len() != n {
		t.Fatalf("Len = %d after AdvanceRound, want %d: stale routes are last-known-good", c.Len(), n)
	}
	c.AdvanceGeneration()
	if c.Len() != avoiding {
		t.Fatalf("Len = %d after the generation moved, want the %d routes that avoid cluster 1", c.Len(), avoiding)
	}
	for i := 0; i < n; i++ {
		_, fresh := c.Get(NewCacheKey(i, i+1, g), canon)
		_, known := c.LastKnownGood(NewCacheKey(i, i+1, g), canon, nil)
		if avoids := i%3 != 1 && (i/3)%3 != 1; fresh != avoids || known != avoids {
			t.Fatalf("route %d (avoids cluster 1: %v): fresh %v, last-known-good %v", i, avoids, fresh, known)
		}
	}
	c.AdvanceAll()
	c.AdvanceGeneration()
	if c.Len() != 0 {
		t.Fatalf("Len = %d after AdvanceAll and a generation, want 0", c.Len())
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

// TestRouteCacheDedupesStampClusters: an entry keeps each distinct cluster
// once — inside the entry itself while they fit, in one spill past that.
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
		{[]int{5, 4, 3, 2, 1, 0, 0, 5}, inlineStamps},
		{many, 20},
	} {
		key := NewCacheKey(i, i+1, g)
		c.Put(key, canon, "r", tc.clusters, c.Version())
		sh := &c.shards[key.shard(len(c.shards))]
		sh.mu.Lock()
		e := sh.entries[key]
		sh.mu.Unlock()
		if len(e.clusters) != tc.want {
			t.Errorf("clusters %v: stored %d stamps, want %d", tc.clusters, len(e.clusters), tc.want)
		}
		if inline := len(e.clusters) == 0 || &e.clusters[0] == &e.inline[0]; inline != (tc.want <= inlineStamps) {
			t.Errorf("clusters %v: %d stamps inline = %v", tc.clusters, tc.want, inline)
		}
		seen := map[int32]bool{}
		for _, cl := range e.clusters {
			if seen[cl] {
				t.Errorf("clusters %v: cluster %d stamped twice", tc.clusters, cl)
			}
			seen[cl] = true
		}
		for _, cl := range tc.clusters {
			c.AdvanceRound(cl)
			if _, ok := c.Get(key, canon); ok {
				t.Errorf("clusters %v: entry survived AdvanceRound(%d)", tc.clusters, cl)
			}
			c.Put(key, canon, "r", tc.clusters, c.Version())
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
