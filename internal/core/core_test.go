package core

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"hfc/internal/netsim"
	"hfc/internal/routing"
	"hfc/internal/serve"
	"hfc/internal/svc"
	"hfc/internal/topology"
)

// buildWorld creates a physical network and role assignments for Bootstrap.
func buildWorld(t *testing.T, seed int64, landmarks, proxies int) (*netsim.Network, []int, []int, []svc.CapabilitySet) {
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
	cat, err := svc.NewCatalog(15)
	if err != nil {
		t.Fatalf("NewCatalog: %v", err)
	}
	caps, err := svc.RandomCapabilities(rng, proxies, cat, 2, 5)
	if err != nil {
		t.Fatalf("RandomCapabilities: %v", err)
	}
	return net, lm, px, caps
}

func TestBootstrapEndToEnd(t *testing.T) {
	net, lm, px, caps := buildWorld(t, 1, 8, 50)
	rng := rand.New(rand.NewSource(2))
	fw, err := Bootstrap(rng, net, lm, px, caps, Config{})
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	if fw.N() != 50 {
		t.Errorf("N = %d, want 50", fw.N())
	}
	if fw.NumClusters() < 2 {
		t.Errorf("clusters = %d, want >= 2 on transit-stub", fw.NumClusters())
	}
	if err := fw.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(fw.LandmarkCoords()) != 8 {
		t.Errorf("landmark coords = %d, want 8", len(fw.LandmarkCoords()))
	}
	if fw.StateMessageStats().Total() == 0 {
		t.Error("no state messages recorded")
	}

	gen, err := svc.NewRequestGenerator(rng, caps, 2, 5)
	if err != nil {
		t.Fatalf("NewRequestGenerator: %v", err)
	}
	for i := 0; i < 20; i++ {
		req, err := gen.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		p, err := fw.Route(req)
		if err != nil {
			t.Fatalf("Route: %v", err)
		}
		if err := p.Validate(req, caps); err != nil {
			t.Errorf("request %d: invalid path: %v", i, err)
		}
	}
}

// TestResolveExplainExposesArtifacts pins ResolveExplain's contract: the
// Fig. 7 artifacts of the answer Resolve serves, computed without touching
// the cache or the counters.
func TestResolveExplainExposesArtifacts(t *testing.T) {
	net, lm, px, caps := buildWorld(t, 3, 8, 40)
	rng := rand.New(rand.NewSource(4))
	fw, err := Bootstrap(rng, net, lm, px, caps, Config{})
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	eng := fw.Engine()
	gen, err := svc.NewRequestGenerator(rng, caps, 3, 5)
	if err != nil {
		t.Fatalf("NewRequestGenerator: %v", err)
	}
	for i := 0; i < 10; i++ {
		req, err := gen.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		before := eng.Stats()
		res, err := eng.ResolveExplain(req)
		if err != nil {
			t.Fatalf("ResolveExplain: %v", err)
		}
		if after := eng.Stats(); after != before {
			t.Errorf("request %d: Stats moved across an explain: %+v -> %+v", i, before, after)
		}
		if len(res.CSP) != req.SG.Len() {
			t.Errorf("request %d: CSP has %d entries for %d services", i, len(res.CSP), req.SG.Len())
		}
		if len(res.Children) == 0 || len(res.ChildPaths) != len(res.Children) {
			t.Fatalf("request %d: children/paths inconsistent: %d vs %d", i, len(res.Children), len(res.ChildPaths))
		}
		for j, child := range res.Children {
			hops := res.ChildPaths[j].Hops
			if hops[0].Node != child.Source || hops[len(hops)-1].Node != child.Dest {
				t.Errorf("request %d child %d: path %v does not span %d..%d", i, j, res.ChildPaths[j], child.Source, child.Dest)
			}
		}
		served, err := eng.ResolveDetailed(req)
		if err != nil {
			t.Fatalf("ResolveDetailed: %v", err)
		}
		if res.CSPCost != served.CSPCost {
			t.Errorf("request %d: explained CSP cost %v, served %v", i, res.CSPCost, served.CSPCost)
		}
		p, err := eng.Resolve(req)
		if err != nil {
			t.Fatalf("Resolve: %v", err)
		}
		if !reflect.DeepEqual(res.Path, p) {
			t.Errorf("request %d: explained path %v, resolved %v", i, res.Path, p)
		}
	}
	sg, err := svc.Linear(caps[0].Sorted()[0])
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	if _, err := eng.ResolveExplain(svc.Request{Source: -1, Dest: 0, SG: sg}); err == nil {
		t.Error("negative source accepted")
	}
	if err := eng.SetUnavailable(0, true); err != nil {
		t.Fatalf("SetUnavailable: %v", err)
	}
	if _, err := eng.ResolveExplain(svc.Request{Source: 1, Dest: 0, SG: sg}); !errors.Is(err, serve.ErrUnavailable) {
		t.Errorf("unavailable destination: err = %v, want ErrUnavailable", err)
	}
}

func TestBootstrapValidation(t *testing.T) {
	net, lm, px, caps := buildWorld(t, 5, 8, 20)
	rng := rand.New(rand.NewSource(6))
	if _, err := Bootstrap(nil, net, lm, px, caps, Config{}); err == nil {
		t.Error("nil rng accepted")
	}
	if _, err := Bootstrap(rng, net, lm, px, caps[:3], Config{}); err == nil {
		t.Error("mismatched caps accepted")
	}
	if _, err := Bootstrap(rng, net, lm[:1], px, caps, Config{}); err == nil {
		t.Error("single landmark accepted")
	}
	if _, err := Bootstrap(rng, nil, lm, px, caps, Config{}); err == nil {
		t.Error("nil measurer accepted")
	}
	// An unknown relax mode fails at Bootstrap, not in every later Route.
	for _, mode := range []routing.RelaxMode{-1, 9} {
		if _, err := Bootstrap(rng, net, lm, px, caps, Config{Relax: mode}); err == nil || !strings.Contains(err.Error(), "unknown relax mode") {
			t.Errorf("Relax %d: err = %v, want an unknown relax mode", int(mode), err)
		}
	}
}

func TestRouteValidatesRequest(t *testing.T) {
	net, lm, px, caps := buildWorld(t, 7, 8, 20)
	rng := rand.New(rand.NewSource(8))
	fw, err := Bootstrap(rng, net, lm, px, caps, Config{})
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	sg, err := svc.Linear("s0")
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	if _, err := fw.Route(svc.Request{Source: 0, Dest: 99, SG: sg}); err == nil {
		t.Error("out-of-range dest accepted")
	}
	if _, err := fw.Route(svc.Request{Source: -1, Dest: 0, SG: sg}); err == nil {
		t.Error("negative source accepted")
	}
}

func TestConfigRelaxModesWork(t *testing.T) {
	net, lm, px, caps := buildWorld(t, 9, 6, 30)
	for _, mode := range []routing.RelaxMode{routing.RelaxBacktrack, routing.RelaxExact, routing.RelaxExternalOnly} {
		rng := rand.New(rand.NewSource(10))
		fw, err := Bootstrap(rng, net, lm, px, caps, Config{Relax: mode})
		if err != nil {
			t.Fatalf("Bootstrap(%v): %v", mode, err)
		}
		gen, err := svc.NewRequestGenerator(rng, caps, 2, 4)
		if err != nil {
			t.Fatalf("NewRequestGenerator: %v", err)
		}
		req, err := gen.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		p, err := fw.Route(req)
		if err != nil {
			t.Fatalf("Route(%v): %v", mode, err)
		}
		if err := p.Validate(req, caps); err != nil {
			t.Errorf("mode %v: %v", mode, err)
		}
	}
}

func TestCapabilitiesAreIsolated(t *testing.T) {
	net, lm, px, caps := buildWorld(t, 11, 6, 20)
	rng := rand.New(rand.NewSource(12))
	fw, err := Bootstrap(rng, net, lm, px, caps, Config{})
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	caps[0].Add("mutated-after-bootstrap")
	if fw.Capabilities()[0].Has("mutated-after-bootstrap") {
		t.Error("framework aliases caller capability sets")
	}
}

func TestAccessorsAndValidate(t *testing.T) {
	net, lm, px, caps := buildWorld(t, 13, 6, 20)
	rng := rand.New(rand.NewSource(14))
	fw, err := Bootstrap(rng, net, lm, px, caps, Config{})
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	if fw.Topology() == nil {
		t.Error("Topology() nil")
	}
	if len(fw.States()) != fw.N() {
		t.Errorf("States() has %d entries, want %d", len(fw.States()), fw.N())
	}
	// Corrupt the framework's state: Validate must notice.
	fw.States()[0].SCTC[0].Add("corruption")
	if err := fw.Validate(); err == nil {
		t.Error("Validate passed on corrupted state")
	}
}
