package serve_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"hfc/internal/env"
	"hfc/internal/routing"
	"hfc/internal/serve"
	"hfc/internal/svc"
)

// What a resolve takes from the heap, measured at run time through every
// callee — the //hfc:hotpath budgets on Resolve and resolveKeyed only bound
// the allocation sites in those two bodies.

// requestPool draws n distinct requests and warms each one's destination —
// its lazily built view and provider index — with a request from another
// source, so that resolving a pool request is a miss that pays for nothing
// but itself.
func requestPool(t *testing.T, eng *serve.Engine, caps []svc.CapabilitySet, seed int64, n int) []svc.Request {
	t.Helper()
	gen, err := svc.NewRequestGenerator(rand.New(rand.NewSource(seed)), caps, 2, 5)
	if err != nil {
		t.Fatalf("NewRequestGenerator: %v", err)
	}
	pool := make([]svc.Request, n)
	for i := range pool {
		if pool[i], err = gen.Next(); err != nil {
			t.Fatalf("Next: %v", err)
		}
		warm := pool[i]
		for warm.Source == pool[i].Source || warm.Source == warm.Dest {
			warm.Source = (warm.Source + 1) % len(caps)
		}
		if _, err := eng.Resolve(warm); err != nil {
			t.Fatalf("warming destination %d: %v", warm.Dest, err)
		}
	}
	return pool
}

// TestEngineResolveHitAllocatesNothing: validation, fingerprint, cache probe
// and collision guard of a repeated request all run in stack scratch.
func TestEngineResolveHitAllocatesNothing(t *testing.T) {
	_, eng, caps := buildEngine(t, 121, 40, serve.Config{})
	pool := requestPool(t, eng, caps, 122, 16)
	for _, req := range pool {
		if _, err := eng.Resolve(req); err != nil {
			t.Fatalf("Resolve: %v", err)
		}
	}
	before := eng.Stats()
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := eng.Resolve(pool[i%len(pool)]); err != nil {
			t.Fatalf("Resolve: %v", err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("a cache hit allocates %v objects, want 0", allocs)
	}
	after := eng.Stats()
	if after.Resolutions != before.Resolutions || after.Cache.Hits-before.Cache.Hits != int64(i) {
		t.Errorf("%d resolves: %d hits, %d resolutions — the pin did not measure hits", i,
			after.Cache.Hits-before.Cache.Hits, after.Resolutions-before.Resolutions)
	}
}

// missAllocBudget is what a miss on a warmed engine takes from the heap, in
// objects, over the stream TestEngineMissAllocBudget draws (two to three
// children per route):
//
//	1  the flight call (its wake-up channel only if a second caller joins)
//	2  per child: its path and the path's hops
//	2  the composed path and its hops, cut to length
//	1  the result handed out and cached
//	1  the canonical form, rendered once
//	1  the cache entry, stamps inside it
//
// and, amortized to nothing, the growth of the cache's and the flight map's
// tables. The CSP, the dissected children, their services, the child-path
// list, the chain graph of each child solve and the stamp clusters live in
// pooled scratch. It is what this stream measures, not a budget to spend.
const missAllocBudget = 11

// TestEngineMissAllocBudget is the ratchet on the miss path, on the
// environment BenchmarkGateRouteResolve runs: distinct requests to warmed
// destinations, every one a miss.
func TestEngineMissAllocBudget(t *testing.T) {
	if raceDetector() {
		t.Skip("under the race detector sync.Pool drops a quarter of its Puts, so the pooled scratch is rebuilt inside the measurement")
	}
	e, eng := gateEnvironment(t)
	const runs = 63
	seen := map[string]bool{}
	var pool []svc.Request
	for len(pool) < runs+1 {
		req, err := e.NextRequest()
		if err != nil {
			t.Fatalf("NextRequest: %v", err)
		}
		if seen[requestID(req)] {
			continue
		}
		seen[requestID(req)] = true
		// Warm the destination's view and provider index from another source.
		warm := req
		for warm.Source == req.Source || warm.Source == warm.Dest {
			warm.Source = (warm.Source + 1) % e.Spec.Proxies
		}
		if _, err := eng.Resolve(warm); err != nil {
			t.Fatalf("warming destination %d: %v", warm.Dest, err)
		}
		seen[requestID(warm)] = true
		pool = append(pool, req)
	}
	before := eng.Stats()
	runtime.GC() // a collection inside the measurement would empty the scratch pools
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := eng.Resolve(pool[i]); err != nil {
			t.Fatalf("Resolve: %v", err)
		}
		i++
	})
	if got := eng.Stats().Resolutions - before.Resolutions; got != int64(i) {
		t.Fatalf("%d of %d resolves were misses; the pool must not repeat", got, i)
	}
	t.Logf("a warmed miss allocates %v objects", allocs)
	if allocs > missAllocBudget {
		t.Errorf("a warmed miss allocates %v objects, want <= %d", allocs, missAllocBudget)
	}
}

// requestID identifies a request the way the route cache does.
func requestID(req svc.Request) string {
	return fmt.Sprint(req.Source, ">", req.Dest, ":", req.SG.Canonical())
}

// gateEnvironment builds the environment of the root package's
// BenchmarkGateRouteResolve (gateSpec there) and a cold engine over it.
func gateEnvironment(t testing.TB) (*env.Environment, *serve.Engine) {
	t.Helper()
	spec := env.SmallSpec(42)
	spec.Proxies = 120
	e, err := env.Build(spec)
	if err != nil {
		t.Fatalf("env.Build: %v", err)
	}
	fw := e.Framework
	eng, err := serve.NewEngine(fw.Topology(), fw.Capabilities(), fw.States(), serve.Config{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return e, eng
}

// TestCachedRouteFootprint: what one cached route keeps alive — the result,
// the composed path and its hops, the canonical form, the cache entry and its
// slot in the shard's map — measured as the live heap 4096 distinct routes
// add.
func TestCachedRouteFootprint(t *testing.T) {
	e, eng := gateEnvironment(t)
	const routes = 4096
	n := e.Spec.Proxies
	seen := map[string]bool{}
	// Every destination's view and index exist before the measurement.
	warm, err := e.NextRequest()
	if err != nil {
		t.Fatalf("NextRequest: %v", err)
	}
	for warm.Dest = 0; warm.Dest < n; warm.Dest++ {
		warm.Source = (warm.Dest + 1) % n
		seen[requestID(warm)] = true
		if _, err := eng.Resolve(warm); err != nil {
			t.Fatalf("warming destination %d: %v", warm.Dest, err)
		}
	}
	pool := make([]svc.Request, 0, routes)
	for i := 0; len(pool) < routes; i++ {
		req, err := e.NextRequest()
		if err != nil {
			t.Fatalf("NextRequest: %v", err)
		}
		// Any pair of proxies, not only the few next to a client.
		req.Source, req.Dest = i%n, (i/n*7+i+1)%n
		if req.Source == req.Dest || seen[requestID(req)] {
			continue
		}
		seen[requestID(req)] = true
		pool = append(pool, req)
	}
	seen = nil
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before, start := heap(), eng.Stats()
	for _, req := range pool {
		if _, err := eng.Resolve(req); err != nil {
			t.Fatalf("Resolve: %v", err)
		}
	}
	after := heap()
	if stored := eng.Stats().Cache.Stores - start.Cache.Stores; stored != routes {
		t.Fatalf("%d of %d resolves stored a route; the pool must not repeat", stored, routes)
	}
	perRoute := float64(int64(after)-int64(before)) / routes
	t.Logf("a cached route holds %.0f B", perRoute)
	if perRoute > 700 {
		t.Errorf("a cached route holds %.0f B of live heap, want <= 700", perRoute)
	}
	runtime.KeepAlive(eng)
	runtime.KeepAlive(pool)
}

// raceDetector reports whether this test binary was built with -race.
func raceDetector() bool {
	info, _ := debug.ReadBuildInfo()
	return info != nil && slices.ContainsFunc(info.Settings, func(s debug.BuildSetting) bool {
		return s.Key == "-race" && s.Value == "true"
	})
}

// TestEngineSeesGraphMutation forbids a memo on the caller's graph: a request
// whose service graph was edited in place since its last resolve is a
// different request, and must be resolved — and validated — as what it now
// says.
func TestEngineSeesGraphMutation(t *testing.T) {
	_, eng, caps := buildEngine(t, 131, 40, serve.Config{})
	req := requestPool(t, eng, caps, 132, 1)[0]
	first, err := eng.Resolve(req)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if !reflect.DeepEqual(first.Services(), req.SG.Services) {
		t.Fatalf("path performs %v, request asks %v", first.Services(), req.SG.Services)
	}
	// Overwrite one vertex with a deployed service the graph does not name.
	k := len(req.SG.Services) / 2
	var other svc.Service
	for _, s := range svc.Union(caps...).Sorted() {
		if !slices.Contains(req.SG.Services, s) {
			other = s
			break
		}
	}
	if other == "" {
		t.Fatal("the request names every deployed service")
	}
	before := eng.Stats()
	req.SG.Services[k] = other
	second, err := eng.Resolve(req)
	if err != nil {
		t.Fatalf("Resolve after mutation: %v", err)
	}
	after := eng.Stats()
	if after.Resolutions != before.Resolutions+1 || after.Cache.Hits != before.Cache.Hits {
		t.Errorf("the mutated request: %d resolutions, %d hits, want 1 and 0",
			after.Resolutions-before.Resolutions, after.Cache.Hits-before.Cache.Hits)
	}
	if !reflect.DeepEqual(second.Services(), req.SG.Services) {
		t.Errorf("path performs %v, the mutated request asks %v", second.Services(), req.SG.Services)
	}
	if err := second.Validate(req, caps); err != nil {
		t.Errorf("path for the mutated request: %v", err)
	}
	// A mutation that breaks the graph is rejected, not served from the
	// entry the intact graph left behind.
	req.SG.Services[k] = req.SG.Services[0]
	if _, err := eng.Resolve(req); err == nil {
		t.Error("a graph mutated to a duplicate name was resolved")
	}
}

// TestEngineDegradedCollisionGuard puts two graphs under one fingerprint, as
// TestRouteCacheCollisionGuard does for the cache: the last-known-good store
// must know nothing for the graph it holds no route for — a degraded answer
// may be stale, never a route for a different service graph.
func TestEngineDegradedCollisionGuard(t *testing.T) {
	_, eng, caps := buildEngine(t, 141, 30, serve.Config{})
	req, fresh := warmRequest(t, eng, caps, 142)
	key := routing.NewCacheKey(req.Source, req.Dest, req.SG)

	colliding, err := svc.Linear(append([]svc.Service{"not-what-was-resolved"}, req.SG.Services...)...)
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	if res := eng.DegradedUnderKey(key, colliding); res != nil {
		t.Fatalf("degraded lookup answered graph %v with the route of %v: %v", colliding, req.SG, res.Path)
	}
	if st := eng.Stats(); st.Degraded != 0 {
		t.Errorf("Degraded = %d after a refused lookup, want 0", st.Degraded)
	}
	res := eng.DegradedUnderKey(key, req.SG)
	if res == nil || !res.Degraded || !reflect.DeepEqual(res.Path, fresh.Path) {
		t.Fatalf("degraded lookup for the stored graph = %+v, want the last known good route", res)
	}
}
