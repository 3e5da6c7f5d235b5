package hfc_test

// Facade tests: the public import surface (package hfc) must be sufficient
// to run the whole framework without touching internal packages directly.

import (
	"math/rand"
	"testing"

	"hfc"
	"hfc/internal/netsim"
	"hfc/internal/topology"
)

func facadeWorld(t *testing.T, seed int64) (*netsim.Network, []int, []int, []hfc.CapabilitySet) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	phys, err := topology.GenerateTransitStub(rng, topology.DefaultTransitStubConfig())
	if err != nil {
		t.Fatalf("GenerateTransitStub: %v", err)
	}
	net, err := netsim.New(phys)
	if err != nil {
		t.Fatalf("netsim.New: %v", err)
	}
	stubs := phys.StubNodes()
	perm := rng.Perm(len(stubs))
	landmarks := make([]int, 6)
	for i := range landmarks {
		landmarks[i] = stubs[perm[i]]
	}
	proxies := make([]int, 40)
	for i := range proxies {
		proxies[i] = stubs[perm[6+i]]
	}
	services := []hfc.Service{"watermark", "transcode", "mix", "compress", "resize", "caption"}
	caps := make([]hfc.CapabilitySet, len(proxies))
	for i := range caps {
		count := 1 + rng.Intn(3)
		caps[i] = hfc.NewCapabilitySet()
		for _, idx := range rng.Perm(len(services))[:count] {
			caps[i].Add(services[idx])
		}
	}
	return net, landmarks, proxies, caps
}

func TestFacadeBootstrapAndRoute(t *testing.T) {
	net, landmarks, proxies, caps := facadeWorld(t, 1)
	rng := rand.New(rand.NewSource(2))
	fw, err := hfc.Bootstrap(rng, net, landmarks, proxies, caps, hfc.Config{})
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	if err := fw.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	sg, err := hfc.Linear("watermark", "transcode", "compress")
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	req := hfc.Request{Source: 0, Dest: 39, SG: sg}
	path, err := fw.Route(req)
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	if err := path.Validate(req, caps); err != nil {
		t.Fatalf("path invalid: %v", err)
	}
	services := path.Services()
	if len(services) != 3 || services[0] != "watermark" || services[2] != "compress" {
		t.Errorf("services = %v", services)
	}
}

func TestFacadeDetailedRoute(t *testing.T) {
	net, landmarks, proxies, caps := facadeWorld(t, 3)
	rng := rand.New(rand.NewSource(4))
	fw, err := hfc.Bootstrap(rng, net, landmarks, proxies, caps, hfc.Config{})
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	sg, err := hfc.Linear("mix", "resize")
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	res, err := fw.Engine().ResolveExplain(hfc.Request{Source: 5, Dest: 20, SG: sg})
	if err != nil {
		t.Fatalf("ResolveExplain: %v", err)
	}
	if len(res.CSP) != 2 {
		t.Errorf("CSP = %v", res.CSP)
	}
	if len(res.Children) == 0 {
		t.Error("no child requests exposed")
	}
	if fw.NumClusters() < 1 || fw.N() != 40 {
		t.Errorf("framework shape wrong: %d clusters, %d nodes", fw.NumClusters(), fw.N())
	}
}
