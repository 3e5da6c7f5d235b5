// Command experiments regenerates every table and figure of the paper's §6
// evaluation, plus the ablation studies listed in DESIGN.md.
//
// Usage:
//
//	experiments -run all                 # everything, reduced defaults
//	experiments -run fig10 -full         # paper-scale Fig. 10 (minutes)
//	experiments -run table1,fig9a,fig9b
//	experiments -run ablation-k,ablation-relax
//
// Runs: table1, fig9a, fig9b, fig10, messages, qos, multilevel,
// convergence, faults, chaos, serve, scale, simscale, ablation-k,
// ablation-dim, ablation-relax, ablation-border, ablation-landmarks,
// ablation-churn. `scale` sweeps overlay construction over the
// spatial-index engine at n=1k/8k (plus 32k and 100k with -full);
// `simscale` runs the virtual-time protocol simulation — churn, crashes,
// partition, probes — at the same sizes, tri-level above 50k.
//
// -cpuprofile/-memprofile write runtime/pprof profiles, flushed on clean
// shutdown.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"hfc/internal/env"
	"hfc/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// runNames lists every experiment -run accepts, besides "all".
var runNames = []string{
	"table1", "fig9a", "fig9b", "fig10", "messages", "qos", "multilevel",
	"convergence", "faults", "chaos", "serve", "scale", "simscale",
	"ablation-k", "ablation-dim", "ablation-relax", "ablation-border",
	"ablation-landmarks", "ablation-churn",
}

// parseRuns splits the -run value into the set of experiments to run. A
// name outside runNames (and "all") is an error, so a typo cannot end in a
// run that did nothing and exited 0.
func parseRuns(runs string) (map[string]bool, error) {
	known := map[string]bool{"all": true}
	for _, name := range runNames {
		known[name] = true
	}
	want := map[string]bool{}
	for _, r := range strings.Split(runs, ",") {
		name := strings.TrimSpace(r)
		if !known[name] {
			return nil, fmt.Errorf("unknown experiment %q in -run; valid names: all, %s", name, strings.Join(runNames, ", "))
		}
		want[name] = true
	}
	return want, nil
}

func run() error {
	runs := flag.String("run", "all", "comma-separated experiments to run (all, "+strings.Join(runNames, ", ")+")")
	seed := flag.Int64("seed", 42, "base random seed")
	full := flag.Bool("full", false, "paper-scale sample sizes (5 trials, 1000 requests; takes minutes)")
	trials := flag.Int("trials", 0, "override trial count")
	requests := flag.Int("requests", 0, "override request count")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on clean shutdown")
	flag.Parse()

	want, err := parseRuns(*runs)
	if err != nil {
		return err
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "experiments: cpuprofile:", cerr)
			}
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: cpuprofile:", err)
			}
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
			}
		}()
	}

	nTrials, nRequests := 2, 200
	if *full {
		// §6.2: "up to 5 runs ... with 1000 client requests per each run";
		// §6.1: 10 physical topologies per size.
		nTrials, nRequests = 5, 1000
	}
	if *trials > 0 {
		nTrials = *trials
	}
	if *requests > 0 {
		nRequests = *requests
	}
	fig9Trials := nTrials
	if *full {
		fig9Trials = 10
	}

	all := want["all"]
	specs := env.Table1(*seed)

	// The ablations run on the 250-proxy environment; paper-scale sweeps
	// on every size would add little beyond runtime.
	ablSpec := specs[0]

	section := func(name string) bool { return all || want[name] }
	timed := func(name string, fn func() error) error {
		start := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("[%s done in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
		return nil
	}

	if section("table1") {
		fmt.Print(experiments.FormatTable1(specs))
		fmt.Println()
	}
	if section("fig9a") || section("fig9b") {
		if err := timed("fig9", func() error {
			rows, err := experiments.RunFig9(specs, fig9Trials)
			if err != nil {
				return err
			}
			if section("fig9a") {
				fmt.Print(experiments.FormatFig9a(rows))
			}
			if section("fig9b") {
				fmt.Print(experiments.FormatFig9b(rows))
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if section("fig10") {
		if err := timed("fig10", func() error {
			rows, err := experiments.RunFig10(specs, nTrials, nRequests)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatFig10(rows))
			return nil
		}); err != nil {
			return err
		}
	}
	if section("messages") {
		if err := timed("messages", func() error {
			rows, err := experiments.RunMessageOverhead(specs)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatMessageOverhead(rows))
			return nil
		}); err != nil {
			return err
		}
	}
	if section("ablation-k") {
		if err := timed("ablation-k", func() error {
			rows, err := experiments.RunAblationK(ablSpec, []float64{1.5, 2, 3, 4, 6}, nRequests)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatAblationK(rows))
			return nil
		}); err != nil {
			return err
		}
	}
	if section("ablation-dim") {
		if err := timed("ablation-dim", func() error {
			rows, err := experiments.RunAblationDim(ablSpec, []int{2, 3, 4, 5}, nRequests, 2000)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatAblationDim(rows))
			return nil
		}); err != nil {
			return err
		}
	}
	if section("ablation-relax") {
		if err := timed("ablation-relax", func() error {
			rows, err := experiments.RunAblationRelax(ablSpec, nRequests)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatAblationRelax(rows))
			return nil
		}); err != nil {
			return err
		}
	}
	if section("ablation-border") {
		if err := timed("ablation-border", func() error {
			rows, err := experiments.RunAblationBorder(ablSpec, nRequests)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatAblationBorder(rows))
			return nil
		}); err != nil {
			return err
		}
	}
	if section("qos") {
		if err := timed("qos", func() error {
			rows, err := experiments.RunQoS(ablSpec, experiments.DefaultQoSSettings(), nRequests)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatQoS(rows))
			return nil
		}); err != nil {
			return err
		}
	}
	if section("multilevel") {
		if err := timed("multilevel", func() error {
			rows, err := experiments.RunMultiLevel(specs, nRequests)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatMultiLevel(rows))
			return nil
		}); err != nil {
			return err
		}
	}
	if section("ablation-landmarks") {
		if err := timed("ablation-landmarks", func() error {
			rows, err := experiments.RunAblationLandmarks(*seed, 300, 250, 10, 2000, nTrials)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatAblationLandmarks(rows))
			return nil
		}); err != nil {
			return err
		}
	}
	if section("convergence") {
		if err := timed("convergence", func() error {
			spec := ablSpec
			spec.Proxies = 120
			rows, err := experiments.RunConvergence(spec, []float64{0, 0.1, 0.3, 0.5, 0.7}, nTrials+2, 60)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatConvergence(rows))
			return nil
		}); err != nil {
			return err
		}
	}
	if section("faults") {
		if err := timed("faults", func() error {
			spec := ablSpec
			spec.Proxies = 120
			rows, err := experiments.RunFaults(spec, []float64{0, 0.05, 0.10, 0.20}, nTrials, nRequests)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatFaults(rows))
			fmt.Println()
			frows, err := experiments.RunBorderFailover(spec, nTrials+1, nRequests/2+1)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatBorderFailover(frows))
			return nil
		}); err != nil {
			return err
		}
	}
	if section("chaos") {
		if err := timed("chaos", func() error {
			spec := ablSpec
			spec.Proxies = 120
			// Every failed resolution during the cut burns a route
			// timeout of wall clock; a modest request set keeps the
			// drill in seconds.
			n := nRequests
			if n > 60 {
				n = 60
			}
			rows, err := experiments.RunChaosDrill(spec, nTrials, n)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatChaosDrill(rows))
			return nil
		}); err != nil {
			return err
		}
	}
	if section("serve") {
		if err := timed("serve", func() error {
			spec := env.SmallSpec(*seed)
			spec.Proxies = 150
			n := nRequests
			if n > 500 {
				n = 500
			}
			rows, err := experiments.RunServe(spec, n, []int{1, 2, 4, 8})
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatServe(rows))
			return nil
		}); err != nil {
			return err
		}
	}
	if section("ablation-churn") {
		if err := timed("ablation-churn", func() error {
			rows, err := experiments.RunAblationChurn(*seed, 150, []int{0, 25, 50, 100, 200})
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatAblationChurn(rows))
			return nil
		}); err != nil {
			return err
		}
	}
	if section("scale") {
		if err := timed("scale", func() error {
			sizes := []int{1000, 8000}
			if *full {
				sizes = []int{1000, 8000, 32000, 100000}
			}
			rows, err := experiments.RunScale(*seed, sizes)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatScale(rows))
			return nil
		}); err != nil {
			return err
		}
	}
	if section("simscale") {
		if err := timed("simscale", func() error {
			sizes := []int{1000, 8000}
			if *full {
				sizes = []int{1000, 8000, 32000, 100000}
			}
			rows, err := experiments.RunSimScale(*seed, sizes, 0)
			if err != nil {
				return err
			}
			fmt.Print(experiments.FormatSimScale(rows))
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}
