package serve_test

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"hfc/internal/hfc"
	"hfc/internal/routing"
	"hfc/internal/serve"
	"hfc/internal/svc"
)

// warmRequest resolves one generated request fresh and returns it with its
// result, so degraded tests start from a populated last-known-good store.
func warmRequest(t *testing.T, eng *serve.Engine, caps []svc.CapabilitySet, seed int64) (svc.Request, *routing.Result) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	gen, err := svc.NewRequestGenerator(rng, caps, 2, 4)
	if err != nil {
		t.Fatalf("NewRequestGenerator: %v", err)
	}
	req, err := gen.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	res, err := eng.ResolveDetailed(req)
	if err != nil {
		t.Fatalf("ResolveDetailed: %v", err)
	}
	if res.Degraded {
		t.Fatal("fresh resolution tagged degraded")
	}
	return req, res
}

func TestEngineDegradedServesLastKnownGood(t *testing.T) {
	_, eng, caps := buildEngine(t, 81, 30, serve.Config{})
	req, fresh := warmRequest(t, eng, caps, 82)

	if err := eng.SetUnavailable(req.Dest, true); err != nil {
		t.Fatalf("SetUnavailable: %v", err)
	}
	if got := eng.UnavailableNodes(); !reflect.DeepEqual(got, []int{req.Dest}) {
		t.Fatalf("UnavailableNodes = %v, want [%d]", got, req.Dest)
	}
	deg, err := eng.ResolveDetailed(req)
	if err != nil {
		t.Fatalf("ResolveDetailed while dest unavailable: %v", err)
	}
	if !deg.Degraded {
		t.Error("result served during outage not tagged degraded")
	}
	if !reflect.DeepEqual(deg.Path, fresh.Path) || !reflect.DeepEqual(deg.CSP, fresh.CSP) {
		t.Error("degraded result differs from last known good")
	}
	if err := deg.Path.Validate(req, eng.Capabilities()); err != nil {
		t.Errorf("degraded path invalid: %v", err)
	}
	if fresh.Degraded {
		t.Error("stored last-known-good result was mutated")
	}
	st := eng.Stats()
	if st.Degraded != 1 || st.UnavailableNodes != 1 {
		t.Errorf("stats = %+v, want Degraded=1 UnavailableNodes=1", st)
	}

	// Recovery: the next resolution is fresh again.
	if err := eng.SetUnavailable(req.Dest, false); err != nil {
		t.Fatalf("SetUnavailable(recover): %v", err)
	}
	if n := eng.Stats().UnavailableNodes; n != 0 {
		t.Fatalf("UnavailableNodes after recovery = %d, want 0", n)
	}
	res, err := eng.ResolveDetailed(req)
	if err != nil {
		t.Fatalf("ResolveDetailed after recovery: %v", err)
	}
	if res.Degraded {
		t.Error("post-recovery resolution still tagged degraded")
	}
}

func TestEngineUnavailableWithoutLastKnownGood(t *testing.T) {
	_, eng, caps := buildEngine(t, 91, 30, serve.Config{})
	rng := rand.New(rand.NewSource(92))
	gen, err := svc.NewRequestGenerator(rng, caps, 2, 4)
	if err != nil {
		t.Fatalf("NewRequestGenerator: %v", err)
	}
	req, err := gen.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if err := eng.SetUnavailable(req.Dest, true); err != nil {
		t.Fatalf("SetUnavailable: %v", err)
	}
	if _, err := eng.ResolveDetailed(req); !errors.Is(err, serve.ErrUnavailable) {
		t.Fatalf("ResolveDetailed = %v, want ErrUnavailable", err)
	}
	if st := eng.Stats(); st.Degraded != 0 {
		t.Errorf("Degraded = %d, want 0", st.Degraded)
	}
}

func TestEngineUpdateCapabilityClearsLastKnownGood(t *testing.T) {
	_, eng, caps := buildEngine(t, 101, 30, serve.Config{})
	req, _ := warmRequest(t, eng, caps, 102)

	if err := eng.SetUnavailable(req.Dest, true); err != nil {
		t.Fatalf("SetUnavailable: %v", err)
	}
	if res, err := eng.ResolveDetailed(req); err != nil || !res.Degraded {
		t.Fatalf("degraded serve before update: res=%v err=%v", res, err)
	}
	// A capability update invalidates every last-known-good route: degraded
	// serving promises stale-but-valid, and validity is per deployment.
	other := (req.Dest + 1) % eng.Topology().N()
	if err := eng.UpdateCapability(other, caps[other].Clone()); err != nil {
		t.Fatalf("UpdateCapability: %v", err)
	}
	if _, err := eng.ResolveDetailed(req); !errors.Is(err, serve.ErrUnavailable) {
		t.Fatalf("ResolveDetailed after update = %v, want ErrUnavailable", err)
	}
}

// TestOvertakenResultIsLastKnownGoodNotFresh puts a SetUnavailable between a
// resolve's version capture and its Put. The route was computed before the
// proxy left, so it must never be a cache hit — the next resolve recomputes —
// yet it is a route that was good, and a resolve while the destination is
// down serves it, tagged degraded.
func TestOvertakenResultIsLastKnownGoodNotFresh(t *testing.T) {
	_, eng, caps := buildEngine(t, 151, 30, serve.Config{})
	gen, err := svc.NewRequestGenerator(rand.New(rand.NewSource(152)), caps, 2, 4)
	if err != nil {
		t.Fatalf("NewRequestGenerator: %v", err)
	}
	req, err := gen.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	// Some proxy on the far side of nothing in particular: any transition
	// moves the version.
	bystander := 0
	for bystander == req.Source || bystander == req.Dest {
		bystander++
	}
	version := eng.CacheVersion()
	if err := eng.SetUnavailable(bystander, true); err != nil {
		t.Fatalf("SetUnavailable: %v", err)
	}
	overtaken, err := eng.ResolveAdmittedAt(req, version)
	if err != nil {
		t.Fatalf("the overtaken resolve: %v", err)
	}
	if eng.CachedRoutes() != 1 {
		t.Fatalf("the engine holds %d routes, want the overtaken one", eng.CachedRoutes())
	}

	// While the destination is down, the overtaken route is what is known.
	if err := eng.SetUnavailable(req.Dest, true); err != nil {
		t.Fatalf("SetUnavailable(dest): %v", err)
	}
	deg, err := eng.ResolveDetailed(req)
	if err != nil {
		t.Fatalf("ResolveDetailed while the destination is down: %v", err)
	}
	if !deg.Degraded || !reflect.DeepEqual(deg.Path, overtaken.Path) {
		t.Fatalf("served %+v while the destination is down, want the overtaken route tagged degraded", deg)
	}
	if err := eng.SetUnavailable(req.Dest, false); err != nil {
		t.Fatalf("SetUnavailable(dest, clear): %v", err)
	}

	// It is never a hit: the next resolve computes.
	before := eng.Stats()
	fresh, err := eng.ResolveDetailed(req)
	if err != nil {
		t.Fatalf("ResolveDetailed: %v", err)
	}
	after := eng.Stats()
	if fresh == overtaken || fresh.Degraded || after.Cache.Hits != before.Cache.Hits || after.Resolutions != before.Resolutions+1 {
		t.Fatalf("the resolve after an overtaken one: %d hits, %d resolutions, degraded %v — want a fresh computation",
			after.Cache.Hits-before.Cache.Hits, after.Resolutions-before.Resolutions, fresh.Degraded)
	}

	// Overtaken once more, over the fresh entry this time: a result that
	// comes late does not displace it.
	version = eng.CacheVersion()
	if err := eng.SetUnavailable(bystander, false); err != nil {
		t.Fatalf("SetUnavailable(clear): %v", err)
	}
	if fresh, err = eng.ResolveDetailed(req); err != nil {
		t.Fatalf("ResolveDetailed: %v", err)
	}
	if _, err := eng.ResolveAdmittedAt(req, version); err != nil {
		t.Fatalf("the second overtaken resolve: %v", err)
	}
	if hit, err := eng.ResolveDetailed(req); err != nil || hit != fresh {
		t.Fatalf("a late overtaken result displaced the fresh entry (err %v)", err)
	}
}

func TestEngineExcludesUnavailableProvider(t *testing.T) {
	_, eng, caps := buildEngine(t, 111, 30, serve.Config{})

	// Install a unique service on exactly two nodes; resolution must avoid
	// whichever one is marked unavailable.
	const flip svc.Service = "flip-degraded"
	a, b := 2, 17
	for _, n := range []int{a, b} {
		withFlip := caps[n].Clone()
		withFlip.Add(flip)
		if err := eng.UpdateCapability(n, withFlip); err != nil {
			t.Fatalf("UpdateCapability(%d): %v", n, err)
		}
	}
	sg, err := svc.Linear(flip)
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	req := svc.Request{Source: 0, Dest: 1, SG: sg}
	p, err := eng.Resolve(req)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	first := providerOf(t, p, flip)
	if first != a && first != b {
		t.Fatalf("flip served by node %d, want %d or %d", first, a, b)
	}

	// Mark the chosen provider unavailable: the cached route depends on its
	// cluster and is invalidated, and the fresh resolution must use the
	// other provider.
	if err := eng.SetUnavailable(first, true); err != nil {
		t.Fatalf("SetUnavailable: %v", err)
	}
	p, err = eng.Resolve(req)
	if err != nil {
		t.Fatalf("Resolve with provider down: %v", err)
	}
	second := providerOf(t, p, flip)
	if second == first {
		t.Fatalf("flip still served by unavailable node %d", first)
	}
	if second != a && second != b {
		t.Fatalf("flip served by node %d, want %d or %d", second, a, b)
	}

	// Both providers down: a fresh computation is impossible, so the engine
	// falls back to the last known good route, tagged degraded.
	if err := eng.SetUnavailable(second, true); err != nil {
		t.Fatalf("SetUnavailable(second): %v", err)
	}
	res, err := eng.ResolveDetailed(req)
	if err != nil {
		t.Fatalf("ResolveDetailed with all providers down: %v", err)
	}
	if !res.Degraded {
		t.Error("fallback result not tagged degraded")
	}
	if got := providerOf(t, res.Path, flip); got != second {
		t.Errorf("degraded route served by node %d, want last known good %d", got, second)
	}
	if st := eng.Stats(); st.Degraded == 0 || st.UnavailableNodes != 2 {
		t.Errorf("stats = %+v, want Degraded>0 UnavailableNodes=2", st)
	}
}

func TestEngineSetUnavailableValidation(t *testing.T) {
	_, eng, _ := buildEngine(t, 121, 20, serve.Config{})
	if err := eng.SetUnavailable(-1, true); err == nil {
		t.Error("negative node accepted")
	}
	if err := eng.SetUnavailable(eng.Topology().N(), true); err == nil {
		t.Error("out-of-range node accepted")
	}
	if eng.IsUnavailable(-1) || eng.IsUnavailable(10_000) {
		t.Error("out-of-range node reported unavailable")
	}
	// Marking twice is idempotent: the count moves once per transition.
	if err := eng.SetUnavailable(3, true); err != nil {
		t.Fatalf("SetUnavailable: %v", err)
	}
	if err := eng.SetUnavailable(3, true); err != nil {
		t.Fatalf("SetUnavailable(again): %v", err)
	}
	if n := eng.Stats().UnavailableNodes; n != 1 {
		t.Errorf("UnavailableNodes = %d, want 1", n)
	}
	if err := eng.SetUnavailable(3, false); err != nil {
		t.Fatalf("SetUnavailable(clear): %v", err)
	}
	if n := eng.Stats().UnavailableNodes; n != 0 {
		t.Errorf("UnavailableNodes after clear = %d, want 0", n)
	}
}

// closestLivePair is the §3.3 definition applied to who is available: the
// closest pair of available proxies drawn from clusters a and b, oriented
// (inA, inB), with Build's tie-break — the lower cluster's smaller node
// first (members ascend, so a strict < keeps it).
func closestLivePair(eng *serve.Engine, a, b int) (inA, inB int) {
	topo := eng.Topology()
	lo, hi := min(a, b), max(a, b)
	inLo, inHi, best := -1, -1, math.Inf(1)
	for _, u := range topo.Members(lo) {
		for _, v := range topo.Members(hi) {
			if d := topo.Dist(u, v); d < best && !eng.IsUnavailable(u) && !eng.IsUnavailable(v) {
				inLo, inHi, best = u, v, d
			}
		}
	}
	if a == lo {
		return inLo, inHi
	}
	return inHi, inLo
}

// checkRoutesAround resolves req fresh and holds the path to the degraded-mode
// contract: no hop on an unavailable proxy, and every crossing between two
// clusters made at their closest pair of available proxies. It reports
// whether the path crosses directly from cluster a to cluster b.
func checkRoutesAround(t *testing.T, eng *serve.Engine, req svc.Request, a, b int) (crosses bool) {
	t.Helper()
	res, err := eng.ResolveDetailed(req)
	if err != nil {
		t.Fatalf("Resolve(%d→%d, %v) with %v unavailable: %v", req.Source, req.Dest, req.SG.Services, eng.UnavailableNodes(), err)
	}
	if res.Degraded {
		t.Fatalf("Resolve(%d→%d) served degraded although source and destination are available", req.Source, req.Dest)
	}
	topo := eng.Topology()
	hops := res.Path.Hops
	for i, h := range hops {
		if eng.IsUnavailable(h.Node) {
			t.Fatalf("fresh path %v goes through unavailable proxy %d (unavailable: %v)", res.Path, h.Node, eng.UnavailableNodes())
		}
		if i == 0 {
			continue
		}
		u, v := hops[i-1].Node, h.Node
		cu, cv := topo.ClusterOf(u), topo.ClusterOf(v)
		if cu == cv {
			continue
		}
		if wantU, wantV := closestLivePair(eng, cu, cv); u != wantU || v != wantV {
			t.Fatalf("path %v crosses clusters %d→%d at (%d,%d), the closest available pair is (%d,%d)", res.Path, cu, cv, u, v, wantU, wantV)
		}
		crosses = crosses || (cu == a && cv == b)
	}
	return crosses
}

// TestEngineRoutesAroundAnyNumberOfDownBorders: however many border proxies
// of a cluster are marked unavailable, as long as the cluster keeps an
// available member a fresh route avoids every one of them and crosses at the
// closest pair of available proxies — there is no depth of failure at which
// the engine runs out of pairs and falls back to a dead one.
func TestEngineRoutesAroundAnyNumberOfDownBorders(t *testing.T) {
	// bySize returns the cluster ids ordered by membership, largest first.
	bySize := func(topo *hfc.Topology) []int {
		ids := make([]int, topo.NumClusters())
		for c := range ids {
			ids[c] = c
		}
		sort.SliceStable(ids, func(i, j int) bool { return len(topo.Members(ids[i])) > len(topo.Members(ids[j])) })
		return ids
	}
	// sweep resolves requests from every available member of cluster a to
	// every member of cluster b, one per service the destination itself
	// offers (so the cheapest mapping stays on the a–b link), until enough of
	// them cross that pair.
	sweep := func(t *testing.T, eng *serve.Engine, caps []svc.CapabilitySet, a, b, enough int) int {
		topo := eng.Topology()
		crossed := 0
		for _, src := range topo.Members(a) {
			if eng.IsUnavailable(src) {
				continue
			}
			for _, dest := range topo.Members(b) {
				for _, s := range caps[dest].Sorted() {
					sg, err := svc.Linear(s)
					if err != nil {
						t.Fatalf("Linear: %v", err)
					}
					if checkRoutesAround(t, eng, svc.Request{Source: src, Dest: dest, SG: sg}, a, b) {
						crossed++
					}
					if crossed == enough {
						return crossed
					}
				}
			}
		}
		return crossed
	}

	t.Run("three deep on one side", func(t *testing.T) {
		for seed := int64(300); seed < 306; seed++ {
			_, eng, caps := buildEngine(t, seed, 60, serve.Config{})
			topo := eng.Topology()
			order := bySize(topo)
			a, b := order[0], order[1]
			if len(topo.Members(a)) < 4 {
				t.Fatalf("seed %d: largest cluster has %d members, want >= 4", seed, len(topo.Members(a)))
			}
			// The border toward b, then whoever is elected in its place, then
			// the next: one more than any fixed ladder of spares would hold.
			for depth := 0; depth < 3; depth++ {
				down, _ := closestLivePair(eng, a, b)
				if err := eng.SetUnavailable(down, true); err != nil {
					t.Fatalf("SetUnavailable(%d): %v", down, err)
				}
			}
			if got := sweep(t, eng, caps, a, b, 100); got < 100 {
				t.Errorf("seed %d: only %d requests crossed clusters %d→%d, want 100", seed, got, a, b)
			}
		}
	})

	t.Run("singleton far side", func(t *testing.T) {
		// A singleton cluster has no second proxy to pair a spare with, so a
		// ranking of node-disjoint pairs never had a fallback here.
		crossed := 0
		for seed := int64(300); seed < 305; seed++ {
			_, eng, caps := buildEngine(t, seed, 60, serve.Config{})
			topo := eng.Topology()
			order := bySize(topo)
			a, b := order[0], order[len(order)-1]
			if len(topo.Members(b)) != 1 {
				continue
			}
			down, _ := closestLivePair(eng, a, b)
			if err := eng.SetUnavailable(down, true); err != nil {
				t.Fatalf("SetUnavailable(%d): %v", down, err)
			}
			crossed += sweep(t, eng, caps, a, b, 100)
		}
		if crossed < 100 {
			t.Errorf("only %d requests crossed into a singleton cluster, want 100", crossed)
		}
	})
}
