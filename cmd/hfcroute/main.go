// Command hfcroute builds a seeded simulation environment, routes service
// requests through the framework's serving engine (serve.Engine's
// ResolveExplain, the same router a cache miss runs), and prints the paper's
// Fig. 7 artifacts for each: the cluster-level service path, the child
// requests, and the composed concrete path, with lengths under both the
// embedded and the true-delay metric.
//
// Usage:
//
//	hfcroute -proxies 250 -requests 3 -seed 7
//	hfcroute -proxies 100 -services "s1,s2,s3" -source 5 -dest 42
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hfc/internal/env"
	"hfc/internal/svc"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hfcroute:", err)
		os.Exit(1)
	}
}

func run() error {
	proxies := flag.Int("proxies", 100, "overlay size")
	phys := flag.Int("phys", 0, "physical topology size (default: scaled from proxies)")
	requests := flag.Int("requests", 3, "number of random requests to route (ignored with -services)")
	seed := flag.Int64("seed", 1, "random seed")
	services := flag.String("services", "", "comma-separated linear service chain for one explicit request")
	source := flag.Int("source", 0, "source proxy for -services")
	dest := flag.Int("dest", 1, "destination proxy for -services")
	dot := flag.String("dot", "", "write the HFC topology as Graphviz to this file (render with dot -Kneato -n -Tsvg)")
	flag.Parse()

	spec := env.SmallSpec(*seed)
	spec.Proxies = *proxies
	if *phys != 0 {
		spec.PhysicalNodes = *phys
	} else if *proxies > 200 {
		spec.PhysicalNodes = *proxies + *proxies/5
	}
	spec.CatalogSize = 40
	spec.MinServices, spec.MaxServices = 4, 10
	spec.MinRequestLen, spec.MaxRequestLen = 4, 10

	fmt.Printf("building environment: %d proxies on %d physical nodes (seed %d)...\n",
		spec.Proxies, spec.PhysicalNodes, spec.Seed)
	e, err := env.Build(spec)
	if err != nil {
		return err
	}
	fw := e.Framework
	fmt.Printf("clusters: %d, border proxies: %d, state messages: %d\n\n",
		fw.NumClusters(), len(fw.Topology().BorderNodes()), fw.StateMessageStats().Total())

	if *dot != "" {
		f, err := os.Create(*dot)
		if err != nil {
			return err
		}
		werr := fw.Topology().WriteDOT(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
		fmt.Printf("wrote topology graph to %s\n\n", *dot)
	}

	var reqs []svc.Request
	if *services != "" {
		var names []svc.Service
		for _, s := range strings.Split(*services, ",") {
			names = append(names, svc.Service(strings.TrimSpace(s)))
		}
		sg, err := svc.Linear(names...)
		if err != nil {
			return err
		}
		reqs = append(reqs, svc.Request{Source: *source, Dest: *dest, SG: sg})
	} else {
		for i := 0; i < *requests; i++ {
			r, err := e.NextRequest()
			if err != nil {
				return err
			}
			reqs = append(reqs, r)
		}
	}

	for i, req := range reqs {
		fmt.Printf("request %d: proxy %d -> [%s] -> proxy %d\n", i, req.Source, req.SG, req.Dest)
		res, err := fw.Engine().ResolveExplain(req)
		if err != nil {
			fmt.Printf("  routing failed: %v\n\n", err)
			continue
		}
		fmt.Printf("  CSP (lower-bound cost %.1f):", res.CSPCost)
		for _, entry := range res.CSP {
			fmt.Printf(" %s/C%d", req.SG.Services[entry.SGVertex], entry.Cluster)
		}
		fmt.Println()
		for j, child := range res.Children {
			fmt.Printf("  child %d: cluster %d, %d..%d, services %v (resolver %d)\n",
				j, child.Cluster, child.Source, child.Dest, child.Services, child.Resolver)
		}
		fmt.Printf("  final path: %s\n", res.Path)
		fmt.Printf("  length: %.1f embedded, %.1f ms true delay, %d relays\n\n",
			res.Path.Length(fw.Topology().Dist), res.Path.Length(e.TrueDist), res.Path.NumRelays())
	}
	return nil
}
