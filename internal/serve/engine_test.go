package serve_test

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"hfc/internal/core"
	"hfc/internal/netsim"
	"hfc/internal/routing"
	"hfc/internal/serve"
	"hfc/internal/svc"
	"hfc/internal/topology"
)

// buildWorld creates a physical network and role assignments for Bootstrap.
func buildWorld(t testing.TB, seed int64, landmarks, proxies int) (*netsim.Network, []int, []int, []svc.CapabilitySet) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	topo, err := topology.GenerateTransitStub(rng, topology.DefaultTransitStubConfig())
	if err != nil {
		t.Fatalf("GenerateTransitStub: %v", err)
	}
	net, err := netsim.New(topo)
	if err != nil {
		t.Fatalf("netsim.New: %v", err)
	}
	stubs := topo.StubNodes()
	perm := rng.Perm(len(stubs))
	lm := make([]int, landmarks)
	for i := range lm {
		lm[i] = stubs[perm[i]]
	}
	px := make([]int, proxies)
	for i := range px {
		px[i] = stubs[perm[landmarks+i]]
	}
	cat, err := svc.NewCatalog(12)
	if err != nil {
		t.Fatalf("NewCatalog: %v", err)
	}
	caps, err := svc.RandomCapabilities(rng, proxies, cat, 2, 5)
	if err != nil {
		t.Fatalf("RandomCapabilities: %v", err)
	}
	return net, lm, px, caps
}

// buildEngine bootstraps a framework and wraps its outputs in an Engine.
func buildEngine(t testing.TB, seed int64, proxies int, cfg serve.Config) (*core.Framework, *serve.Engine, []svc.CapabilitySet) {
	t.Helper()
	net, lm, px, caps := buildWorld(t, seed, 8, proxies)
	rng := rand.New(rand.NewSource(seed + 1))
	fw, err := core.Bootstrap(rng, net, lm, px, caps, core.Config{})
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	eng, err := serve.NewEngine(fw.Topology(), fw.Capabilities(), fw.States(), cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return fw, eng, caps
}

// TestEngineMatchesScan: the engine's indexed resolution — the served answer
// and the explained one — is bit-identical to the index-free reference
// router, which scans cluster members for providers, in every relax mode.
func TestEngineMatchesScan(t *testing.T) {
	fw, _, caps := buildEngine(t, 21, 40, serve.Config{})
	for _, mode := range []routing.RelaxMode{routing.RelaxBacktrack, routing.RelaxExact, routing.RelaxExternalOnly} {
		eng, err := serve.NewEngine(fw.Topology(), fw.Capabilities(), fw.States(), serve.Config{Relax: mode})
		if err != nil {
			t.Fatalf("NewEngine(%v): %v", mode, err)
		}
		gen, err := svc.NewRequestGenerator(rand.New(rand.NewSource(22)), caps, 2, 5)
		if err != nil {
			t.Fatalf("NewRequestGenerator: %v", err)
		}
		for i := 0; i < 30; i++ {
			req, err := gen.Next()
			if err != nil {
				t.Fatalf("Next: %v", err)
			}
			r, err := routing.NewHierarchicalRouter(fw.Topology(), fw.States(), req.Dest, mode)
			if err != nil {
				t.Fatalf("NewHierarchicalRouter: %v", err)
			}
			want, err := r.Route(req)
			if err != nil {
				t.Fatalf("%v request %d: scan Route: %v", mode, i, err)
			}
			served, err := eng.ResolveDetailed(req)
			if err != nil {
				t.Fatalf("%v request %d: ResolveDetailed: %v", mode, i, err)
			}
			explained, err := eng.ResolveExplain(req)
			if err != nil {
				t.Fatalf("%v request %d: ResolveExplain: %v", mode, i, err)
			}
			for _, got := range []struct {
				name string
				res  *routing.Result
			}{{"served", served}, {"explained", explained}} {
				if got.res.CSPCost != want.CSPCost || got.res.Path.DecisionCost != want.Path.DecisionCost {
					t.Fatalf("%v request %d: %s costs (CSP %v, path %v), scan (CSP %v, path %v) — must be bit-identical",
						mode, i, got.name, got.res.CSPCost, got.res.Path.DecisionCost, want.CSPCost, want.Path.DecisionCost)
				}
				if !reflect.DeepEqual(got.res.Path.Hops, want.Path.Hops) {
					t.Fatalf("%v request %d: %s hops %v, scan hops %v", mode, i, got.name, got.res.Path.Hops, want.Path.Hops)
				}
			}
			if err := served.Path.Validate(req, caps); err != nil {
				t.Errorf("%v request %d: invalid path: %v", mode, i, err)
			}
		}
	}
}

func TestEngineCachesRepeatedRequests(t *testing.T) {
	_, eng, caps := buildEngine(t, 31, 30, serve.Config{})
	rng := rand.New(rand.NewSource(32))
	gen, err := svc.NewRequestGenerator(rng, caps, 2, 4)
	if err != nil {
		t.Fatalf("NewRequestGenerator: %v", err)
	}
	req, err := gen.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	first, err := eng.ResolveDetailed(req)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	second, err := eng.ResolveDetailed(req)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if first != second {
		t.Error("repeated request not answered from cache (distinct results)")
	}
	st := eng.Stats()
	if st.Cache.Hits == 0 {
		t.Errorf("stats = %+v, want at least one cache hit", st)
	}
	if st.Resolutions != 1 {
		t.Errorf("resolutions = %d, want 1", st.Resolutions)
	}
}

func TestEngineAccountsEveryResolution(t *testing.T) {
	_, eng, caps := buildEngine(t, 41, 30, serve.Config{})
	rng := rand.New(rand.NewSource(42))
	gen, err := svc.NewRequestGenerator(rng, caps, 2, 4)
	if err != nil {
		t.Fatalf("NewRequestGenerator: %v", err)
	}
	req, err := gen.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	// Many concurrent identical resolutions of one uncached request: every
	// call must be accounted as exactly one of cache hit, dedup join, or
	// full resolution, and all must agree on the result.
	const callers = 32
	var wg sync.WaitGroup
	results := make([]*routing.Path, callers)
	start := make(chan struct{})
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			p, err := eng.Resolve(req)
			if err != nil {
				t.Errorf("caller %d: %v", g, err)
				return
			}
			results[g] = p
		}(g)
	}
	close(start)
	wg.Wait()
	for g := 1; g < callers; g++ {
		if results[g] == nil || !reflect.DeepEqual(results[g].Hops, results[0].Hops) {
			t.Fatalf("caller %d result %v differs from caller 0 result %v", g, results[g], results[0])
		}
	}
	st := eng.Stats()
	if got := st.Cache.Hits + st.Deduped + st.Resolutions; got != callers {
		t.Errorf("hits(%d) + deduped(%d) + resolutions(%d) = %d, want %d",
			st.Cache.Hits, st.Deduped, st.Resolutions, got, callers)
	}
}

func TestEngineUpdateCapabilityMovesProvider(t *testing.T) {
	_, eng, caps := buildEngine(t, 61, 30, serve.Config{})

	// Install a fresh service on node a; requests must route through a.
	const flip svc.Service = "flip-service"
	a, b := 2, 17
	capsA := caps[a].Clone()
	capsA.Add(flip)
	if err := eng.UpdateCapability(a, capsA); err != nil {
		t.Fatalf("UpdateCapability(a): %v", err)
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
	if node := providerOf(t, p, flip); node != a {
		t.Fatalf("flip served by node %d, want %d", node, a)
	}

	// Move the service to node b: the cached route must be invalidated and
	// the new resolution must use b.
	if err := eng.UpdateCapability(a, caps[a]); err != nil {
		t.Fatalf("UpdateCapability(a, restore): %v", err)
	}
	capsB := caps[b].Clone()
	capsB.Add(flip)
	if err := eng.UpdateCapability(b, capsB); err != nil {
		t.Fatalf("UpdateCapability(b): %v", err)
	}
	p, err = eng.Resolve(req)
	if err != nil {
		t.Fatalf("Resolve after move: %v", err)
	}
	if node := providerOf(t, p, flip); node != b {
		t.Fatalf("after move, flip served by node %d, want %d", node, b)
	}
	if err := p.Validate(req, eng.Capabilities()); err != nil {
		t.Errorf("path invalid under current capabilities: %v", err)
	}

	// Remove it everywhere: resolution must fail with ErrNoProviders.
	if err := eng.UpdateCapability(b, caps[b]); err != nil {
		t.Fatalf("UpdateCapability(b, restore): %v", err)
	}
	if _, err := eng.Resolve(req); !errors.Is(err, routing.ErrNoProviders) {
		t.Errorf("Resolve with no provider: err = %v, want ErrNoProviders", err)
	}
}

func TestEngineValidation(t *testing.T) {
	fw, eng, caps := buildEngine(t, 71, 20, serve.Config{})
	if _, err := serve.NewEngine(nil, caps, fw.States(), serve.Config{}); err == nil {
		t.Error("nil topology accepted")
	}
	if _, err := serve.NewEngine(fw.Topology(), caps[:2], fw.States(), serve.Config{}); err == nil {
		t.Error("mismatched caps accepted")
	}
	if _, err := serve.NewEngine(fw.Topology(), caps, fw.States()[:3], serve.Config{}); err == nil {
		t.Error("mismatched states accepted")
	}
	sg, err := svc.Linear("s0")
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	if _, err := eng.Resolve(svc.Request{Source: 0, Dest: 999, SG: sg}); err == nil {
		t.Error("out-of-range destination accepted")
	}
	if err := eng.UpdateCapability(-1, svc.NewCapabilitySet("x")); err == nil {
		t.Error("out-of-range node accepted")
	}
	if err := eng.UpdateCapability(0, nil); err == nil {
		t.Error("nil capability set accepted")
	}
}

// providerOf returns the node serving service s on path p.
func providerOf(t *testing.T, p *routing.Path, s svc.Service) int {
	t.Helper()
	for _, h := range p.Hops {
		if h.Service == s {
			return h.Node
		}
	}
	t.Fatalf("path %v has no hop serving %q", p, s)
	return -1
}
