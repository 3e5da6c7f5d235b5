package topology

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hfc/internal/graph"
)

func TestConfigForSizeMatchesPaperSizes(t *testing.T) {
	// The paper's physical topology sizes must be reproduced exactly by the
	// default per-domain structure.
	for _, want := range []int{300, 600, 900, 1200} {
		cfg, err := ConfigForSize(want)
		if err != nil {
			t.Fatalf("ConfigForSize(%d): %v", want, err)
		}
		if got := cfg.TotalNodes(); got != want {
			t.Errorf("ConfigForSize(%d).TotalNodes() = %d", want, got)
		}
	}
}

func TestConfigForSizeTooSmall(t *testing.T) {
	if _, err := ConfigForSize(50); err == nil {
		t.Error("ConfigForSize(50) succeeded, want error")
	}
}

func TestGenerateTransitStubStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := DefaultTransitStubConfig()
	topo, err := GenerateTransitStub(rng, cfg)
	if err != nil {
		t.Fatalf("GenerateTransitStub: %v", err)
	}
	if topo.N() != cfg.TotalNodes() {
		t.Errorf("N() = %d, want %d", topo.N(), cfg.TotalNodes())
	}
	if !topo.Graph.Connected() {
		t.Error("generated topology disconnected")
	}
	// Count node kinds.
	transit, stub := 0, 0
	for _, n := range topo.Nodes {
		switch n.Kind {
		case KindTransit:
			transit++
			if n.StubDomain != -1 {
				t.Errorf("transit node %d has stub domain %d", n.ID, n.StubDomain)
			}
		case KindStub:
			stub++
			if n.StubDomain < 0 || n.StubDomain >= topo.NumStubDomains {
				t.Errorf("stub node %d has out-of-range stub domain %d", n.ID, n.StubDomain)
			}
		default:
			t.Errorf("node %d has invalid kind %v", n.ID, n.Kind)
		}
		if n.TransitDomain < 0 || n.TransitDomain >= cfg.TransitDomains {
			t.Errorf("node %d has out-of-range transit domain %d", n.ID, n.TransitDomain)
		}
	}
	wantTransit := cfg.TransitDomains * cfg.TransitNodesPerDomain
	if transit != wantTransit {
		t.Errorf("transit nodes = %d, want %d", transit, wantTransit)
	}
	if stub != topo.N()-wantTransit {
		t.Errorf("stub nodes = %d, want %d", stub, topo.N()-wantTransit)
	}
	wantStubDomains := wantTransit * cfg.StubsPerTransitNode
	if topo.NumStubDomains != wantStubDomains {
		t.Errorf("NumStubDomains = %d, want %d", topo.NumStubDomains, wantStubDomains)
	}
}

func TestGenerateTransitStubDeterministic(t *testing.T) {
	cfg := DefaultTransitStubConfig()
	a, err := GenerateTransitStub(rand.New(rand.NewSource(7)), cfg)
	if err != nil {
		t.Fatalf("GenerateTransitStub: %v", err)
	}
	b, err := GenerateTransitStub(rand.New(rand.NewSource(7)), cfg)
	if err != nil {
		t.Fatalf("GenerateTransitStub: %v", err)
	}
	ea, eb := a.Graph.Edges(), b.Graph.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("edge counts differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
}

func TestGenerateTransitStubValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	good := DefaultTransitStubConfig()
	if _, err := GenerateTransitStub(nil, good); err == nil {
		t.Error("nil rng accepted")
	}
	bads := []func(*TransitStubConfig){
		func(c *TransitStubConfig) { c.TransitDomains = 0 },
		func(c *TransitStubConfig) { c.TransitNodesPerDomain = 0 },
		func(c *TransitStubConfig) { c.StubsPerTransitNode = -1 },
		func(c *TransitStubConfig) { c.StubNodesPerDomain = 0 },
		func(c *TransitStubConfig) { c.IntraStubDelay = DelayRange{Lo: 0, Hi: 1} },
		func(c *TransitStubConfig) { c.InterTransitDelay = DelayRange{Lo: 5, Hi: 2} },
	}
	for i, mutate := range bads {
		cfg := good
		mutate(&cfg)
		if _, err := GenerateTransitStub(rng, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestStubNodesReturnsOnlyStubs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	topo, err := GenerateTransitStub(rng, DefaultTransitStubConfig())
	if err != nil {
		t.Fatalf("GenerateTransitStub: %v", err)
	}
	for _, id := range topo.StubNodes() {
		if topo.Nodes[id].Kind != KindStub {
			t.Errorf("StubNodes() includes non-stub node %d", id)
		}
	}
}

func TestStubNodesFlatTopologyReturnsAll(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	topo, err := GenerateFlatRandom(rng, 10, 0.2, DelayRange{Lo: 1, Hi: 5})
	if err != nil {
		t.Fatalf("GenerateFlatRandom: %v", err)
	}
	if got := len(topo.StubNodes()); got != 10 {
		t.Errorf("flat StubNodes() = %d nodes, want 10", got)
	}
}

func TestDelayHierarchyProperty(t *testing.T) {
	// Intra-stub-domain shortest paths must be short relative to paths that
	// cross transit domains: the structure the clustering pipeline relies on.
	rng := rand.New(rand.NewSource(5))
	cfg := DefaultTransitStubConfig()
	topo, err := GenerateTransitStub(rng, cfg)
	if err != nil {
		t.Fatalf("GenerateTransitStub: %v", err)
	}
	csr, err := graph.NewCSR(topo.Graph)
	if err != nil {
		t.Fatalf("NewCSR: %v", err)
	}
	apsp, err := csr.AllPairsShortestPaths()
	if err != nil {
		t.Fatalf("APSP: %v", err)
	}
	var intraStub, interTransit []float64
	for i, a := range topo.Nodes {
		for j := i + 1; j < len(topo.Nodes); j++ {
			b := topo.Nodes[j]
			if a.Kind != KindStub || b.Kind != KindStub {
				continue
			}
			d := apsp.Dist(a.ID, b.ID)
			switch {
			case a.StubDomain == b.StubDomain:
				intraStub = append(intraStub, d)
			case a.TransitDomain != b.TransitDomain:
				interTransit = append(interTransit, d)
			}
		}
	}
	if len(intraStub) == 0 || len(interTransit) == 0 {
		t.Fatal("no sample pairs collected")
	}
	meanIntra := mean(intraStub)
	meanInter := mean(interTransit)
	if meanInter < 3*meanIntra {
		t.Errorf("delay hierarchy too flat: intra-stub mean %.2f, inter-transit mean %.2f", meanIntra, meanInter)
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestGenerateWaxman(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	topo, err := GenerateWaxman(rng, 60, 100, 0.4, 0.2)
	if err != nil {
		t.Fatalf("GenerateWaxman: %v", err)
	}
	if topo.N() != 60 {
		t.Errorf("N() = %d, want 60", topo.N())
	}
	if !topo.Graph.Connected() {
		t.Error("waxman topology disconnected")
	}
}

func TestGenerateWaxmanValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cases := []struct {
		n           int
		side, a, b  float64
		description string
	}{
		{0, 100, 0.4, 0.2, "zero nodes"},
		{10, -1, 0.4, 0.2, "negative side"},
		{10, 100, 0, 0.2, "zero alpha"},
		{10, 100, 1.5, 0.2, "alpha > 1"},
		{10, 100, 0.4, 0, "zero beta"},
	}
	for _, c := range cases {
		if _, err := GenerateWaxman(rng, c.n, c.side, c.a, c.b); err == nil {
			t.Errorf("GenerateWaxman accepted %s", c.description)
		}
	}
	if _, err := GenerateWaxman(nil, 10, 100, 0.4, 0.2); err == nil {
		t.Error("GenerateWaxman accepted nil rng")
	}
}

func TestGenerateFlatRandomConnectedProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(80)
		topo, err := GenerateFlatRandom(rng, n, 0.05, DelayRange{Lo: 1, Hi: 10})
		if err != nil {
			return false
		}
		return topo.Graph.Connected()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestGenerateFlatRandomValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if _, err := GenerateFlatRandom(rng, 0, 0.1, DelayRange{Lo: 1, Hi: 2}); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := GenerateFlatRandom(rng, 5, -0.1, DelayRange{Lo: 1, Hi: 2}); err == nil {
		t.Error("negative edge probability accepted")
	}
	if _, err := GenerateFlatRandom(rng, 5, 1.1, DelayRange{Lo: 1, Hi: 2}); err == nil {
		t.Error("edge probability > 1 accepted")
	}
	if _, err := GenerateFlatRandom(rng, 5, 0.1, DelayRange{Lo: 0, Hi: 2}); err == nil {
		t.Error("zero-delay range accepted")
	}
	if _, err := GenerateFlatRandom(nil, 5, 0.1, DelayRange{Lo: 1, Hi: 2}); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestNodeKindString(t *testing.T) {
	if KindTransit.String() != "transit" || KindStub.String() != "stub" {
		t.Error("NodeKind.String() wrong for valid kinds")
	}
	if NodeKind(0).String() == "" {
		t.Error("NodeKind(0).String() empty")
	}
}
