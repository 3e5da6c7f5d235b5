package env

import (
	"testing"

	"hfc/internal/stats"
)

func TestTable1MatchesPaper(t *testing.T) {
	specs := Table1(1)
	if len(specs) != 4 {
		t.Fatalf("Table1 has %d rows, want 4", len(specs))
	}
	want := []struct{ phys, proxies, clients int }{
		{300, 250, 40}, {600, 500, 90}, {900, 750, 140}, {1200, 1000, 120},
	}
	for i, w := range want {
		s := specs[i]
		if s.PhysicalNodes != w.phys || s.Proxies != w.proxies || s.Clients != w.clients {
			t.Errorf("row %d = %+v, want %+v", i, s, w)
		}
		if s.Landmarks != 10 || s.MinServices != 4 || s.MaxServices != 10 ||
			s.MinRequestLen != 4 || s.MaxRequestLen != 10 {
			t.Errorf("row %d parameter columns wrong: %+v", i, s)
		}
	}
	// Distinct derived seeds.
	if specs[0].Seed == specs[1].Seed {
		t.Error("rows share a seed")
	}
}

func TestBuildSmallEnvironment(t *testing.T) {
	e, err := Build(SmallSpec(7))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if e.Framework.N() != 60 {
		t.Errorf("overlay size = %d, want 60", e.Framework.N())
	}
	if err := e.Framework.Validate(); err != nil {
		t.Errorf("framework invalid: %v", err)
	}
	if e.Framework.NumClusters() < 2 {
		t.Errorf("only %d clusters detected on a transit-stub overlay", e.Framework.NumClusters())
	}
	if e.Mesh.N() != 60 {
		t.Errorf("mesh size = %d, want 60", e.Mesh.N())
	}
	// Landmarks and proxies must occupy disjoint physical nodes (clients
	// may share hosts when the topology is tight).
	seen := make(map[int]bool)
	for _, group := range [][]int{e.LandmarkPhys, e.ProxyPhys} {
		for _, id := range group {
			if seen[id] {
				t.Fatalf("physical node %d plays two roles", id)
			}
			seen[id] = true
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := Build(SmallSpec(3))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	b, err := Build(SmallSpec(3))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if a.Framework.NumClusters() != b.Framework.NumClusters() {
		t.Error("cluster counts differ across identical builds")
	}
	for i := range a.ProxyPhys {
		if a.ProxyPhys[i] != b.ProxyPhys[i] {
			t.Fatal("proxy placement differs across identical builds")
		}
	}
	ra, err := a.NextRequest()
	if err != nil {
		t.Fatalf("NextRequest: %v", err)
	}
	rb, err := b.NextRequest()
	if err != nil {
		t.Fatalf("NextRequest: %v", err)
	}
	if ra.Source != rb.Source || ra.Dest != rb.Dest || ra.SG.Len() != rb.SG.Len() {
		t.Error("request streams differ across identical builds")
	}
}

func TestNextRequestSatisfiable(t *testing.T) {
	e, err := Build(SmallSpec(11))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	deployed := make(map[string]bool)
	for _, c := range e.Framework.Capabilities() {
		for _, s := range c.Sorted() {
			deployed[string(s)] = true
		}
	}
	for i := 0; i < 30; i++ {
		req, err := e.NextRequest()
		if err != nil {
			t.Fatalf("NextRequest: %v", err)
		}
		if err := req.Validate(e.Framework.N()); err != nil {
			t.Fatalf("request %d invalid: %v", i, err)
		}
		if req.Source == req.Dest {
			t.Fatalf("request %d has equal endpoints", i)
		}
		l := req.SG.Len()
		if l < e.Spec.MinRequestLen || l > e.Spec.MaxRequestLen {
			t.Fatalf("request %d length %d outside [%d,%d]", i, l, e.Spec.MinRequestLen, e.Spec.MaxRequestLen)
		}
		for _, s := range req.SG.Services {
			if !deployed[string(s)] {
				t.Fatalf("request %d asks for undeployed service %q", i, s)
			}
		}
	}
}

func TestTrueDistSymmetricPositive(t *testing.T) {
	e, err := Build(SmallSpec(13))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for i := 0; i < 20; i++ {
		u, v := i%e.Framework.N(), (i*7+3)%e.Framework.N()
		if u == v {
			continue
		}
		if e.TrueDist(u, v) != e.TrueDist(v, u) {
			t.Errorf("TrueDist asymmetric for (%d,%d)", u, v)
		}
		if e.TrueDist(u, v) <= 0 {
			t.Errorf("TrueDist(%d,%d) = %v", u, v, e.TrueDist(u, v))
		}
	}
}

func TestEmbeddingErrorReasonable(t *testing.T) {
	e, err := Build(SmallSpec(17))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	errs, err := e.EmbeddingError(300)
	if err != nil {
		t.Fatalf("EmbeddingError: %v", err)
	}
	if med := stats.Median(errs); med > 0.6 {
		t.Errorf("median embedding error %.3f too high", med)
	}
	if _, err := e.EmbeddingError(0); err == nil {
		t.Error("zero samples accepted")
	}
}

func TestBuildValidation(t *testing.T) {
	bads := []func(*Spec){
		func(s *Spec) { s.PhysicalNodes = 50 },
		func(s *Spec) { s.Landmarks = 1 },
		func(s *Spec) { s.Proxies = 1 },
		func(s *Spec) { s.Clients = -1 },
		func(s *Spec) { s.CatalogSize = 0 },
		func(s *Spec) { s.MaxRequestLen = 99 },
		func(s *Spec) { s.Proxies = 10000 }, // more landmarks+proxies than stub nodes
	}
	for i, mutate := range bads {
		spec := SmallSpec(1)
		mutate(&spec)
		if _, err := Build(spec); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}
