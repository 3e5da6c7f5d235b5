// Multilevel: the tri-level HFC extension. The paper evaluates a bi-level
// hierarchy ("in a bi-level HFC hierarchy, two nodes are at most two nodes
// away"); this example adds a third tier — groups of clusters with
// super-border pairs — on the same overlay and shows the trade: every added
// level cuts per-proxy routing state further and pays with longer paths.
//
//	go run ./examples/multilevel
package main

import (
	"fmt"
	"math"
	"os"

	"hfc/internal/env"
	"hfc/internal/mlhfc"
	"hfc/internal/stats"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "multilevel:", err)
		os.Exit(1)
	}
}

func run() error {
	spec := env.SmallSpec(5)
	spec.Proxies = 150
	spec.PhysicalNodes = 300
	e, err := env.Build(spec)
	if err != nil {
		return err
	}
	fw := e.Framework
	biTopo := fw.Topology()
	caps := fw.Capabilities()

	cfg := mlhfc.DefaultConfig()
	cfg.TargetGroups = int(math.Round(math.Sqrt(float64(biTopo.NumClusters()))))
	tri, err := mlhfc.Build(biTopo.Coords(), cfg)
	if err != nil {
		return err
	}
	states, err := mlhfc.Distribute(tri, caps)
	if err != nil {
		return err
	}
	fmt.Printf("overlay: %d proxies\n", fw.N())
	fmt.Printf("bi-level:  %d clusters\n", biTopo.NumClusters())
	fmt.Printf("tri-level: %d groups", tri.NumGroups())
	for g := 0; g < tri.NumGroups(); g++ {
		fmt.Printf("  [group %d: %d proxies, %d clusters]", g, len(tri.Members(g)), tri.Interior(g).NumClusters())
	}
	fmt.Println()

	// State comparison.
	var biCoord, triCoord float64
	biStates := fw.States()
	var biSvc, triSvc float64
	for node := 0; node < fw.N(); node++ {
		biCoord += float64(biTopo.CoordinateStateSize(node))
		biSvc += float64(biStates[node].ServiceStateSize())
		triCoord += float64(tri.CoordinateStateSize(node))
		triSvc += float64(tri.ServiceStateSize(node))
	}
	n := float64(fw.N())
	fmt.Printf("\nper-proxy state (coordinates): flat %d, bi-level %.1f, tri-level %.1f\n",
		fw.N(), biCoord/n, triCoord/n)
	fmt.Printf("per-proxy state (services):    flat %d, bi-level %.1f, tri-level %.1f\n\n",
		fw.N(), biSvc/n, triSvc/n)

	// Path-quality comparison over the same requests.
	var biLens, triLens []float64
	var sample string
	for i := 0; i < 40; i++ {
		req, err := e.NextRequest()
		if err != nil {
			return err
		}
		biPath, err := fw.Route(req)
		if err != nil {
			return err
		}
		triRes, err := mlhfc.Route(tri, states, req)
		if err != nil {
			return err
		}
		biLens = append(biLens, biPath.Length(e.TrueDist))
		triLens = append(triLens, triRes.Path.Length(e.TrueDist))
		if i == 0 {
			sample = fmt.Sprintf("  request: %d -> [%s] -> %d\n  bi-level:  %s\n  tri-level: %s\n",
				req.Source, req.SG, req.Dest, biPath, triRes.Path)
		}
	}
	fmt.Printf("sample request resolved both ways:\n%s\n", sample)
	fmt.Printf("true-delay path length over 40 requests:\n")
	fmt.Printf("  bi-level:  %s\n", stats.Summarize(biLens))
	fmt.Printf("  tri-level: %s\n", stats.Summarize(triLens))
	fmt.Printf("\nthe trade: each hierarchy level cuts state and lengthens paths —\nthe deeper aggregation hides more internal distance from the router.\n")
	return nil
}
