// Churn: the paper's §7 future-work scenario — dynamic membership — run on
// the concurrent overlay runtime. New proxies join the overlay over time
// with the join-nearest-cluster heuristic the paper suggests; the example
// tracks how clustering quality decays, triggers a full re-clustering when
// it degrades past a threshold, and shows routing staying correct
// throughout (each epoch rebuilds the HFC topology and re-converges state
// through the live message-passing system).
//
//	go run ./examples/churn
package main

import (
	"fmt"
	"math/rand"
	"os"

	"hfc/internal/cluster"
	"hfc/internal/coords"
	"hfc/internal/hfc"
	"hfc/internal/overlay"
	"hfc/internal/state"
	"hfc/internal/stats"
	"hfc/internal/svc"
)

// world is the evolving overlay membership.
type world struct {
	rng    *rand.Rand
	points []coords.Point
	caps   []svc.CapabilitySet
	cat    *svc.Catalog
	// assignment is maintained incrementally by join-nearest.
	assignment []int
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "churn:", err)
		os.Exit(1)
	}
}

func run() error {
	w := &world{rng: rand.New(rand.NewSource(31))}
	var err error
	w.cat, err = svc.NewCatalog(15)
	if err != nil {
		return err
	}

	// Initial membership: 5 tight neighbourhoods of 12 proxies.
	for b := 0; b < 5; b++ {
		cx := float64(b%3) * 300
		cy := float64(b/3) * 300
		for i := 0; i < 12; i++ {
			w.points = append(w.points, coords.Point{cx + w.rng.Float64()*40, cy + w.rng.Float64()*40})
		}
	}
	for range w.points {
		if err := w.deployServices(); err != nil {
			return err
		}
	}

	// Epoch 0: full clustering.
	cmap, err := coords.NewMap(w.points)
	if err != nil {
		return err
	}
	res, err := cluster.Cluster(len(w.points), cmap.Dist, cluster.DefaultConfig())
	if err != nil {
		return err
	}
	w.assignment = append([]int(nil), res.Assignment...)
	if err := w.runEpoch(0, res); err != nil {
		return err
	}

	// Epochs 1..3: 15 joins each via join-nearest; re-cluster when the
	// separation quality drops below threshold.
	const qualityFloor = 3.0
	for epoch := 1; epoch <= 3; epoch++ {
		for j := 0; j < 15; j++ {
			w.join()
			if err := w.deployServices(); err != nil {
				return err
			}
		}
		cmap, err := coords.NewMap(w.points)
		if err != nil {
			return err
		}
		joined := clusteringFrom(w.assignment)
		q := cluster.Evaluate(joined, cmap.Dist)
		fmt.Printf("epoch %d: %d proxies, %d clusters after join-nearest, separation %.1f\n",
			epoch, len(w.points), q.NumClusters, q.Separation)
		use := joined
		if q.Separation < qualityFloor {
			fmt.Printf("  separation below %.1f -> full re-clustering\n", qualityFloor)
			use, err = cluster.Cluster(len(w.points), cmap.Dist, cluster.DefaultConfig())
			if err != nil {
				return err
			}
			w.assignment = append(w.assignment[:0], use.Assignment...)
		}
		if err := w.runEpoch(epoch, use); err != nil {
			return err
		}
	}

	// Final phase: node crashes on the churned membership — fail-stop a
	// border proxy plus some regular proxies, keep routing through
	// re-elected borders and live providers, then recover everyone.
	return w.faultDrill()
}

// faultDrill crashes a border proxy and two regular proxies on the
// current membership, shows the overlay re-converging (modulo the crashed
// set) and routing around the failures, then recovers the nodes and
// re-verifies strict convergence.
func (w *world) faultDrill() error {
	cmap, err := coords.NewMap(w.points)
	if err != nil {
		return err
	}
	clustering, err := cluster.Cluster(len(w.points), cmap.Dist, cluster.DefaultConfig())
	if err != nil {
		return err
	}
	topo, err := hfc.Build(cmap, clustering)
	if err != nil {
		return err
	}
	sys, err := overlay.New(topo, w.caps, overlay.Config{})
	if err != nil {
		return err
	}
	if err := sys.Start(); err != nil {
		return err
	}
	defer func() {
		if err := sys.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "churn: stop:", err)
		}
	}()
	sys.TriggerStateRound()
	sys.Quiesce()
	sys.TriggerStateRound()
	sys.Quiesce()

	// Crash one border proxy and two proxies with no border duty.
	victims := []int{topo.BorderNodes()[0]}
	for i := 0; i < topo.N() && len(victims) < 3; i++ {
		if !topo.IsBorder(i) {
			victims = append(victims, i)
		}
	}
	for _, v := range victims {
		if err := sys.Crash(v); err != nil {
			return err
		}
	}
	rounds := 0
	for r := 1; r <= 10; r++ {
		sys.TriggerStateRound()
		sys.Quiesce()
		ok, err := sys.ConvergedLive()
		if err != nil {
			return err
		}
		if ok {
			rounds = r
			break
		}
	}
	if rounds == 0 {
		return fmt.Errorf("fault drill: no re-convergence within 10 rounds")
	}
	fmt.Printf("fault drill: crashed %v (border %d), re-converged in %d round(s)\n",
		victims, victims[0], rounds)

	gen, err := svc.NewRequestGenerator(w.rng, w.caps, 2, 5)
	if err != nil {
		return err
	}
	routed := 0
	for i := 0; i < 20; i++ {
		req, err := gen.Next()
		if err != nil {
			return err
		}
		if sys.IsCrashed(req.Source) || sys.IsCrashed(req.Dest) {
			continue
		}
		res, err := sys.Route(req)
		if err != nil {
			return fmt.Errorf("fault drill request %d: %w", i, err)
		}
		if err := res.Path.Validate(req, w.caps); err != nil {
			return fmt.Errorf("fault drill request %d: %w", i, err)
		}
		routed++
	}
	fc := sys.FaultCounters()
	fmt.Printf("  routed %d requests around the crashes (%d sends dropped at crashed nodes)\n",
		routed, fc.DroppedToCrashed)

	for _, v := range victims {
		if err := sys.Recover(v); err != nil {
			return err
		}
	}
	for r := 0; r < 3; r++ {
		sys.TriggerStateRound()
		sys.Quiesce()
	}
	ok, err := sys.Converged()
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("fault drill: no strict convergence after recovery")
	}
	fmt.Println("  recovered all; strict convergence restored")
	return nil
}

// deployServices gives the newest proxy 2-5 random services.
func (w *world) deployServices() error {
	if len(w.caps) >= len(w.points) {
		return nil
	}
	caps, err := svc.RandomCapabilities(w.rng, 1, w.cat, 2, 5)
	if err != nil {
		return err
	}
	w.caps = append(w.caps, caps[0])
	return nil
}

// join adds one proxy near a random existing proxy (a new machine in some
// stub domain) and assigns it to its nearest neighbour's cluster — the
// paper's suggested heuristic.
func (w *world) join() {
	anchor := w.points[w.rng.Intn(len(w.points))]
	p := coords.Point{anchor[0] + w.rng.NormFloat64()*30, anchor[1] + w.rng.NormFloat64()*30}
	best, bestD := 0, coords.Dist(p, w.points[0])
	for i := 1; i < len(w.points); i++ {
		if d := coords.Dist(p, w.points[i]); d < bestD {
			best, bestD = i, d
		}
	}
	w.points = append(w.points, p)
	w.assignment = append(w.assignment, w.assignment[best])
}

// runEpoch rebuilds the HFC topology for the current membership, runs the
// live state protocol to convergence, and routes a batch of requests.
func (w *world) runEpoch(epoch int, clustering *cluster.Result) error {
	cmap, err := coords.NewMap(w.points)
	if err != nil {
		return err
	}
	topo, err := hfc.Build(cmap, clustering)
	if err != nil {
		return err
	}
	sys, err := overlay.New(topo, w.caps, overlay.Config{})
	if err != nil {
		return err
	}
	if err := sys.Start(); err != nil {
		return err
	}
	defer func() {
		if err := sys.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "churn: stop:", err)
		}
	}()
	sys.TriggerStateRound()
	sys.Quiesce()
	sys.TriggerStateRound()
	sys.Quiesce()
	states, err := sys.States()
	if err != nil {
		return err
	}
	if err := state.VerifyConvergence(topo, w.caps, states); err != nil {
		return fmt.Errorf("epoch %d: %w", epoch, err)
	}

	gen, err := svc.NewRequestGenerator(w.rng, w.caps, 2, 5)
	if err != nil {
		return err
	}
	var lengths []float64
	for i := 0; i < 20; i++ {
		req, err := gen.Next()
		if err != nil {
			return err
		}
		res, err := sys.Route(req)
		if err != nil {
			return err
		}
		if err := res.Path.Validate(req, w.caps); err != nil {
			return fmt.Errorf("epoch %d request %d: %w", epoch, i, err)
		}
		lengths = append(lengths, res.Path.Length(cmap.Dist))
	}
	fmt.Printf("  epoch %d live overlay: %d clusters, routed 20 requests, mean length %.1f\n",
		epoch, topo.NumClusters(), stats.Mean(lengths))
	return nil
}

// clusteringFrom densifies an assignment vector into a cluster.Result.
func clusteringFrom(assignment []int) *cluster.Result {
	remap := make(map[int]int)
	var clusters [][]int
	dense := make([]int, len(assignment))
	for node, c := range assignment {
		id, ok := remap[c]
		if !ok {
			id = len(clusters)
			remap[c] = id
			clusters = append(clusters, nil)
		}
		dense[node] = id
		clusters[id] = append(clusters[id], node)
	}
	return &cluster.Result{Assignment: dense, Clusters: clusters}
}
