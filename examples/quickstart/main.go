// Quickstart: build a small service overlay end to end and route one
// request through the HFC framework.
//
// The pipeline is the whole paper in five calls: generate a simulated
// Internet (transit-stub + delay oracle), bootstrap the framework (GNP
// coordinates → MST clustering → border selection → state distribution),
// and ask for a service path.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"math/rand"
	"os"

	"hfc/internal/core"
	"hfc/internal/netsim"
	"hfc/internal/svc"
	"hfc/internal/topology"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	rng := rand.New(rand.NewSource(7))

	// 1. A simulated Internet: ~300 routers in transit-stub structure.
	cfg, err := topology.ConfigForSize(300)
	if err != nil {
		return err
	}
	phys, err := topology.GenerateTransitStub(rng, cfg)
	if err != nil {
		return err
	}
	net, err := netsim.New(phys)
	if err != nil {
		return err
	}

	// 2. Pick hosts: 8 landmarks and 50 proxies on distinct stub nodes.
	stubs := phys.StubNodes()
	perm := rng.Perm(len(stubs))
	landmarks := make([]int, 8)
	for i := range landmarks {
		landmarks[i] = stubs[perm[i]]
	}
	proxies := make([]int, 50)
	for i := range proxies {
		proxies[i] = stubs[perm[8+i]]
	}

	// 3. Deploy services: each proxy statically hosts 3-6 of 20 services.
	cat, err := svc.NewCatalog(20)
	if err != nil {
		return err
	}
	caps, err := svc.RandomCapabilities(rng, len(proxies), cat, 3, 6)
	if err != nil {
		return err
	}

	// 4. Bootstrap the HFC framework: measure → embed → cluster → borders
	// → distribute state.
	fw, err := core.Bootstrap(rng, net, landmarks, proxies, caps, core.Config{})
	if err != nil {
		return err
	}
	fmt.Printf("overlay: %d proxies in %d clusters, %d border proxies\n",
		fw.N(), fw.NumClusters(), len(fw.Topology().BorderNodes()))
	fmt.Printf("state per proxy: own cluster + %d cluster aggregates (flat would be %d entries)\n\n",
		fw.NumClusters(), fw.N())

	// 5. Route a request: proxy 3 wants s2 → s7 → s11 applied on the way
	// to proxy 42.
	sg, err := svc.Linear("s2", "s7", "s11")
	if err != nil {
		return err
	}
	req := svc.Request{Source: 3, Dest: 42, SG: sg}
	res, err := fw.Engine().ResolveExplain(req)
	if err != nil {
		return err
	}
	fmt.Printf("request: proxy %d -> [%s] -> proxy %d\n", req.Source, req.SG, req.Dest)
	fmt.Print("cluster-level path:")
	for _, e := range res.CSP {
		fmt.Printf(" %s/C%d", req.SG.Services[e.SGVertex], e.Cluster)
	}
	fmt.Printf("\nfinal service path: %s\n", res.Path)
	fmt.Printf("embedded length %.1f, %d relay hops\n",
		res.Path.Length(fw.Topology().Dist), res.Path.NumRelays())
	return nil
}
