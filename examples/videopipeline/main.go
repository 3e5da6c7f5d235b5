// Videopipeline: the paper's §2.1 motivating application. An MPEG stream
// travelling from a media server's proxy to a client's proxy undergoes a
// chain of customizations:
//
//	watermark → mpeg-to-h261 → mix-music → compress
//
// Transcoders, watermarkers and mixers are statically installed on
// different proxies across the wide area; the framework finds a
// delay-efficient proxy for every step, hierarchically.
//
//	go run ./examples/videopipeline
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

// mediaServices is the deployable catalog of this deployment.
var mediaServices = []svc.Service{
	"watermark", "mpeg-to-h261", "mpeg-to-jpeg", "jpeg-to-h261",
	"mix-music", "compress", "decompress", "resize", "denoise", "caption",
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "videopipeline:", err)
		os.Exit(1)
	}
}

func run() error {
	rng := rand.New(rand.NewSource(11))

	cfg, err := topology.ConfigForSize(600)
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
	stubs := phys.StubNodes()
	perm := rng.Perm(len(stubs))
	landmarks := make([]int, 10)
	for i := range landmarks {
		landmarks[i] = stubs[perm[i]]
	}
	proxies := make([]int, 80)
	for i := range proxies {
		proxies[i] = stubs[perm[10+i]]
	}

	// Deploy 2-4 media services per proxy.
	cat, err := svc.CatalogOf(mediaServices...)
	if err != nil {
		return err
	}
	caps, err := svc.RandomCapabilities(rng, len(proxies), cat, 2, 4)
	if err != nil {
		return err
	}

	fw, err := core.Bootstrap(rng, net, landmarks, proxies, caps, core.Config{})
	if err != nil {
		return err
	}
	fmt.Printf("media proxy network: %d proxies, %d clusters\n\n", fw.N(), fw.NumClusters())

	// The §2.1 customization chain: (1) watermark for copyright, (2)
	// convert MPEG to H.261 for bandwidth, (3) mix in background music,
	// (4) compress again.
	sg, err := svc.Linear("watermark", "mpeg-to-h261", "mix-music", "compress")
	if err != nil {
		return err
	}
	serverProxy, clientProxy := 0, fw.N()-1
	req := svc.Request{Source: serverProxy, Dest: clientProxy, SG: sg}

	res, err := fw.Engine().ResolveExplain(req)
	if err != nil {
		return err
	}
	fmt.Printf("stream: server proxy %d -> client proxy %d\n", serverProxy, clientProxy)
	fmt.Println("customization chain:", req.SG)
	fmt.Println()
	fmt.Println("hierarchical resolution:")
	for i, child := range res.Children {
		fmt.Printf("  cluster %d resolves %v (entry %d, exit %d) -> %s\n",
			child.Cluster, child.Services, child.Source, child.Dest, res.ChildPaths[i])
	}
	fmt.Printf("\ncomposed service path: %s\n", res.Path)
	fmt.Printf("embedded length %.1f over %d hops (%d pure relays)\n",
		res.Path.Length(fw.Topology().Dist), len(res.Path.Hops)-1, res.Path.NumRelays())

	// Show the paths the stream would have taken with no watermarking
	// requirement — dependency constraints change the mapping.
	short, err := svc.Linear("mpeg-to-h261", "compress")
	if err != nil {
		return err
	}
	p2, err := fw.Route(svc.Request{Source: serverProxy, Dest: clientProxy, SG: short})
	if err != nil {
		return err
	}
	fmt.Printf("\nwithout watermark/mix steps the path shortens to: %s (length %.1f)\n",
		p2, p2.Length(fw.Topology().Dist))
	return nil
}
