// Package env builds complete simulation environments reproducing Table 1
// of the paper: a transit-stub physical topology, landmarks, overlay
// proxies with random service deployments, clients, the bootstrapped HFC
// framework, and the single-level mesh baseline — everything the §6
// experiments operate on, reproducibly from a seed.
package env

import (
	"errors"
	"fmt"
	"math/rand"

	"hfc/internal/core"
	"hfc/internal/mesh"
	"hfc/internal/netsim"
	"hfc/internal/svc"
	"hfc/internal/topology"
)

// Spec is one simulation environment configuration — one row of Table 1
// plus the knobs the paper leaves implicit (catalog size, probe count,
// embedding dimension).
type Spec struct {
	// PhysicalNodes is the transit-stub topology size (Table 1: 300, 600,
	// 900, 1200).
	PhysicalNodes int
	// Landmarks is the GNP landmark count (Table 1: 10).
	Landmarks int
	// Proxies is the overlay size (Table 1: 250, 500, 750, 1000).
	Proxies int
	// Clients issue service requests from the edge (Table 1: 40, 90, 140,
	// 120).
	Clients int
	// MinServices and MaxServices bound services per proxy (Table 1:
	// 4–10).
	MinServices, MaxServices int
	// MinRequestLen and MaxRequestLen bound the service-graph length of
	// generated requests (Table 1: 4–10).
	MinRequestLen, MaxRequestLen int
	// CatalogSize is the number of distinct services in the system. The
	// paper does not state it; 40 keeps per-service provider density
	// realistic (each service on ~17% of proxies).
	CatalogSize int
	// CoordDim is the embedding dimension (paper: 2).
	CoordDim int
	// Probes is the measurement probe count (minimum taken).
	Probes int
	// InconsistencyK overrides the MST clustering inconsistency factor
	// when non-zero (ablation A1); zero keeps the library default.
	InconsistencyK float64
	// Seed drives all randomness in the build.
	Seed int64
}

// Table1 returns the paper's four environments (Table 1), seeded with the
// given base seed (each row gets a distinct derived seed).
func Table1(seed int64) []Spec {
	rows := []struct {
		phys, proxies, clients int
	}{
		{300, 250, 40},
		{600, 500, 90},
		{900, 750, 140},
		{1200, 1000, 120},
	}
	specs := make([]Spec, len(rows))
	for i, r := range rows {
		specs[i] = Spec{
			PhysicalNodes: r.phys,
			Landmarks:     10,
			Proxies:       r.proxies,
			Clients:       r.clients,
			MinServices:   4,
			MaxServices:   10,
			MinRequestLen: 4,
			MaxRequestLen: 10,
			CatalogSize:   40,
			CoordDim:      2,
			Probes:        5,
			Seed:          seed + int64(i)*1009,
		}
	}
	return specs
}

// SmallSpec returns a laptop-friendly environment for tests and examples.
func SmallSpec(seed int64) Spec {
	return Spec{
		PhysicalNodes: 300,
		Landmarks:     8,
		Proxies:       60,
		Clients:       10,
		MinServices:   3,
		MaxServices:   6,
		MinRequestLen: 2,
		MaxRequestLen: 5,
		CatalogSize:   20,
		CoordDim:      2,
		Probes:        3,
		Seed:          seed,
	}
}

func (s Spec) validate() error {
	switch {
	case s.PhysicalNodes < 100:
		return fmt.Errorf("env: physical size %d below minimum 100", s.PhysicalNodes)
	case s.Landmarks < 2:
		return fmt.Errorf("env: need at least 2 landmarks, got %d", s.Landmarks)
	case s.Proxies < 2:
		return fmt.Errorf("env: need at least 2 proxies, got %d", s.Proxies)
	case s.Clients < 0:
		return fmt.Errorf("env: negative client count %d", s.Clients)
	case s.CatalogSize < 1:
		return fmt.Errorf("env: catalog size %d must be >= 1", s.CatalogSize)
	case s.MaxRequestLen > s.CatalogSize:
		return fmt.Errorf("env: request length up to %d exceeds catalog %d", s.MaxRequestLen, s.CatalogSize)
	}
	return nil
}

// Environment is a fully built simulation world.
type Environment struct {
	// Spec is the configuration the environment was built from.
	Spec Spec
	// Net is the physical network delay oracle.
	Net *netsim.Network
	// LandmarkPhys, ProxyPhys and ClientPhys map role indices to physical
	// node IDs; ProxyPhys[i] is overlay node i's host.
	LandmarkPhys, ProxyPhys, ClientPhys []int
	// Framework is the bootstrapped HFC middleware over the proxies.
	Framework *core.Framework
	// Mesh is the single-level baseline overlay over the same proxies and
	// the same embedded coordinates.
	Mesh *mesh.Mesh
	// rng continues the build's random stream for request generation.
	rng *rand.Rand
	gen *svc.RequestGenerator
}

// Build constructs the environment: generate the transit-stub Internet,
// place landmarks/proxies/clients on distinct stub nodes, bootstrap the HFC
// framework (GNP coordinates → clustering → borders → state), and build the
// mesh baseline on the same coordinates.
func Build(spec Spec) (*Environment, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))

	cfg, err := topology.ConfigForSize(spec.PhysicalNodes)
	if err != nil {
		return nil, fmt.Errorf("env: %w", err)
	}
	topo, err := topology.GenerateTransitStub(rng, cfg)
	if err != nil {
		return nil, fmt.Errorf("env: %w", err)
	}
	net, err := netsim.New(topo)
	if err != nil {
		return nil, fmt.Errorf("env: %w", err)
	}

	// Landmarks and proxies need distinct hosts; clients only attach to the
	// overlay from the edge and may share stub nodes when the topology is
	// tight (Table 1's 300-node row places 300 roles on ~288 stub nodes).
	stubs := topo.StubNodes()
	need := spec.Landmarks + spec.Proxies
	if need > len(stubs) {
		return nil, fmt.Errorf("env: need %d distinct stub nodes for landmarks+proxies but topology has %d", need, len(stubs))
	}
	perm := rng.Perm(len(stubs))
	pick := func(count int, offset int) []int {
		out := make([]int, count)
		for i := 0; i < count; i++ {
			out[i] = stubs[perm[offset+i]]
		}
		return out
	}
	landmarks := pick(spec.Landmarks, 0)
	proxies := pick(spec.Proxies, spec.Landmarks)
	var clients []int
	if remaining := len(stubs) - need; remaining >= spec.Clients {
		clients = pick(spec.Clients, need)
	} else {
		clients = make([]int, spec.Clients)
		for i := range clients {
			clients[i] = stubs[rng.Intn(len(stubs))]
		}
	}

	cat, err := svc.NewCatalog(spec.CatalogSize)
	if err != nil {
		return nil, fmt.Errorf("env: %w", err)
	}
	caps, err := svc.RandomCapabilities(rng, spec.Proxies, cat, spec.MinServices, spec.MaxServices)
	if err != nil {
		return nil, fmt.Errorf("env: %w", err)
	}

	coreCfg := core.Config{
		CoordDim: spec.CoordDim,
		Probes:   spec.Probes,
	}
	if spec.InconsistencyK != 0 {
		coreCfg.Cluster.InconsistencyFactor = spec.InconsistencyK
	}
	fw, err := core.Bootstrap(rng, net, landmarks, proxies, caps, coreCfg)
	if err != nil {
		return nil, fmt.Errorf("env: %w", err)
	}

	m, err := mesh.Build(rng, fw.Topology().Coords(), mesh.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("env: %w", err)
	}

	gen, err := svc.NewRequestGenerator(rng, caps, spec.MinRequestLen, spec.MaxRequestLen)
	if err != nil {
		return nil, fmt.Errorf("env: %w", err)
	}

	return &Environment{
		Spec:         spec,
		Net:          net,
		LandmarkPhys: landmarks,
		ProxyPhys:    proxies,
		ClientPhys:   clients,
		Framework:    fw,
		Mesh:         m,
		rng:          rng,
		gen:          gen,
	}, nil
}

// TrueDist returns the true physical latency between two overlay nodes —
// the evaluation metric of Fig. 10 (routing decisions use embedded
// coordinates; resulting paths are measured on the real network).
func (e *Environment) TrueDist(u, v int) float64 {
	return e.Net.Latency(e.ProxyPhys[u], e.ProxyPhys[v])
}

// NextRequest draws a random satisfiable service request per the spec's
// length range, with endpoints chosen as the proxies nearest to two random
// clients (requests enter the overlay at the edge). With no clients
// configured, endpoints are random distinct proxies.
func (e *Environment) NextRequest() (svc.Request, error) {
	req, err := e.gen.Next()
	if err != nil {
		return svc.Request{}, err
	}
	if len(e.ClientPhys) >= 2 {
		a := e.rng.Intn(len(e.ClientPhys))
		b := e.rng.Intn(len(e.ClientPhys) - 1)
		if b >= a {
			b++
		}
		req.Source = e.nearestProxy(e.ClientPhys[a])
		req.Dest = e.nearestProxy(e.ClientPhys[b])
		if req.Source == req.Dest {
			// Both clients attach to the same proxy; fall back to the
			// generator's distinct endpoints.
			return e.gen.Next()
		}
	}
	return req, nil
}

// nearestProxy returns the overlay index of the proxy closest (in true
// latency) to a physical node.
func (e *Environment) nearestProxy(phys int) int {
	best, bestD := 0, e.Net.Latency(phys, e.ProxyPhys[0])
	for i := 1; i < len(e.ProxyPhys); i++ {
		if d := e.Net.Latency(phys, e.ProxyPhys[i]); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// EmbeddingError samples the coordinate map's relative error against true
// latencies over `samples` random proxy pairs.
func (e *Environment) EmbeddingError(samples int) ([]float64, error) {
	if samples < 1 {
		return nil, errors.New("env: need at least one sample")
	}
	cmap := e.Framework.Topology().Coords()
	out := make([]float64, 0, samples)
	for len(out) < samples {
		u, v := e.rng.Intn(cmap.N()), e.rng.Intn(cmap.N())
		if u == v {
			continue
		}
		pred := cmap.Dist(u, v)
		actual := e.TrueDist(u, v)
		out = append(out, relErr(pred, actual))
	}
	return out, nil
}

func relErr(pred, actual float64) float64 {
	const eps = 1e-6
	d := pred - actual
	if d < 0 {
		d = -d
	}
	return d / (actual + eps)
}
