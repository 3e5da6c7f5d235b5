// Webdoc: the paper's second §2.1 application — web document
// customization — demonstrating a NON-LINEAR service graph (Fig. 2b). A
// document can reach the client through alternative preparations:
//
//	translate → merge → format   (translate first, then merge)
//	ocr → merge → format         (scanned source needs OCR instead)
//	ocr → format                 (scanned source used standalone)
//
// A feasible configuration is any source-to-sink path of the SG; the
// framework picks the configuration AND the providing proxies jointly, so
// the cheapest alternative wins.
//
//	go run ./examples/webdoc
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
		fmt.Fprintln(os.Stderr, "webdoc:", err)
		os.Exit(1)
	}
}

func run() error {
	rng := rand.New(rand.NewSource(23))

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
	stubs := phys.StubNodes()
	perm := rng.Perm(len(stubs))
	landmarks := make([]int, 8)
	for i := range landmarks {
		landmarks[i] = stubs[perm[i]]
	}
	proxies := make([]int, 60)
	for i := range proxies {
		proxies[i] = stubs[perm[8+i]]
	}

	cat, err := svc.CatalogOf("translate", "merge", "format", "ocr", "spellcheck", "summarize")
	if err != nil {
		return err
	}
	caps, err := svc.RandomCapabilities(rng, len(proxies), cat, 2, 3)
	if err != nil {
		return err
	}
	fw, err := core.Bootstrap(rng, net, landmarks, proxies, caps, core.Config{})
	if err != nil {
		return err
	}
	fmt.Printf("document proxy network: %d proxies, %d clusters\n\n", fw.N(), fw.NumClusters())

	// Fig. 2(b)-shaped SG. Vertices: translate(0), merge(1), format(2),
	// ocr(3). Edges: translate→merge, ocr→merge, merge→format, ocr→format.
	sg := &svc.Graph{
		Services: []svc.Service{"translate", "merge", "format", "ocr"},
		Edges:    [][2]int{{0, 1}, {3, 1}, {1, 2}, {3, 2}},
	}
	if err := sg.Validate(); err != nil {
		return err
	}
	fmt.Println("service graph:", sg)
	fmt.Println("feasible configurations:")
	for _, config := range sg.Configurations() {
		names := sg.ServicesOf(config)
		fmt.Printf("  %v\n", names)
	}

	req := svc.Request{Source: 2, Dest: 51, SG: sg}
	p, err := fw.Route(req)
	if err != nil {
		return err
	}
	fmt.Printf("\nrequest: proxy %d -> proxy %d\n", req.Source, req.Dest)
	fmt.Printf("chosen configuration: %v\n", p.Services())
	fmt.Printf("service path: %s\n", p)
	fmt.Printf("embedded length %.1f\n", p.Length(fw.Topology().Dist))
	return nil
}
