// Package core assembles the paper's complete HFC service-routing
// middleware out of its substrates — the one-stop public API of this
// library. Bootstrap runs the full §3–§4 pipeline:
//
//  1. distance-map obtainment: landmark measurements + GNP coordinate
//     embedding (§3.1);
//  2. distance-based clustering with Zahn's MST method (§3.2);
//  3. HFC topology construction with closest-pair border selection (§3.3);
//  4. hierarchical state distribution: SCT_P / SCT_C convergence (§4).
//
// The resulting Framework answers service requests with the hierarchical
// divide-and-conquer routing of §5.
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"

	"hfc/internal/cluster"
	"hfc/internal/coords"
	"hfc/internal/hfc"
	"hfc/internal/routing"
	"hfc/internal/state"
	"hfc/internal/svc"
)

// Config tunes framework construction. The zero value selects the paper's
// settings (2-D coordinates, 5 probes per measurement, MST clustering
// defaults, back-tracking cluster-level relaxation).
type Config struct {
	// CoordDim is the embedding dimension (§6.1 uses 2).
	CoordDim int
	// Probes is the number of delay probes per measurement, of which the
	// minimum is kept (§3.1).
	Probes int
	// Cluster configures the MST inconsistency detection.
	Cluster cluster.Config
	// Relax selects the cluster-level relaxation mode (§5.1 step 2).
	Relax routing.RelaxMode
}

func (c Config) withDefaults() Config {
	if c.CoordDim == 0 {
		c.CoordDim = 2
	}
	if c.Probes == 0 {
		c.Probes = 5
	}
	if c.Relax == 0 {
		c.Relax = routing.RelaxBacktrack
	}
	return c
}

// Framework is a bootstrapped HFC service overlay: what Bootstrap built
// plus an uncached Route over it. Serving — route cache, in-flight dedup,
// capability updates, degraded mode — is internal/serve's:
//
//	serve.NewEngine(fw.Topology(), fw.Capabilities(), fw.States(), serve.Config{})
type Framework struct {
	topo      *hfc.Topology
	caps      []svc.CapabilitySet
	states    []state.NodeState
	stateMsgs state.MessageStats
	relax     routing.RelaxMode
	landmarks []coords.Point
	// routers caches one hierarchical router per destination proxy.
	// Bootstrap's states and views are immutable, and HierarchicalRouter
	// is read-only during Route, so a router built once
	// serves every later request to the same destination — the per-request
	// O(K² + |C|) view copy and solver construction disappear from the hot
	// path. Slots fill lazily; concurrent first requests may build twice and
	// either result wins the store (both are identical).
	routers []atomic.Pointer[routing.HierarchicalRouter]
	// indexes and solver are shared by every cached router: one lazy
	// inverted-provider-index cache (version pinned at 0 — static states)
	// and one intra-cluster solver reading it.
	indexes *routing.LazyIndexes
	solver  *routing.LocalIntraSolver
}

// Bootstrap builds the framework. m is the measurement substrate (the
// physical network); landmarks and proxies are its node IDs — landmarks
// serve only as GNP reference points and do not join the overlay. caps[i]
// is the service deployment of proxies[i]. All randomness flows from rng.
func Bootstrap(rng *rand.Rand, m coords.Measurer, landmarks, proxies []int, caps []svc.CapabilitySet, cfg Config) (*Framework, error) {
	if rng == nil {
		return nil, errors.New("core: nil rng")
	}
	if len(caps) != len(proxies) {
		return nil, fmt.Errorf("core: %d capability sets for %d proxies", len(caps), len(proxies))
	}
	cfg = cfg.withDefaults()

	cmap, lmPoints, err := coords.BuildMap(rng, m, landmarks, proxies, cfg.CoordDim, cfg.Probes)
	if err != nil {
		return nil, fmt.Errorf("core: distance map: %w", err)
	}
	// Clustering runs on the geo engine (cfg.Cluster.Points) by default, so
	// no O(n²) matrix is ever materialized.
	clusterCfg := cfg.Cluster
	if clusterCfg.Points == nil {
		clusterCfg.Points = cmap.Points
	}
	clustering, err := cluster.Cluster(cmap.N(), cmap.Dist, clusterCfg)
	if err != nil {
		return nil, fmt.Errorf("core: clustering: %w", err)
	}
	topo, err := hfc.Build(cmap, clustering)
	if err != nil {
		return nil, fmt.Errorf("core: hfc topology: %w", err)
	}
	states, msgs, err := state.Distribute(topo, caps)
	if err != nil {
		return nil, fmt.Errorf("core: state distribution: %w", err)
	}
	capsCopy := make([]svc.CapabilitySet, len(caps))
	for i, c := range caps {
		capsCopy[i] = c.Clone()
	}
	fw := &Framework{
		topo:      topo,
		caps:      capsCopy,
		states:    states,
		stateMsgs: msgs,
		relax:     cfg.Relax,
		landmarks: lmPoints,
	}
	fw.routers = make([]atomic.Pointer[routing.HierarchicalRouter], topo.N())
	fw.indexes = routing.NewLazyIndexes(states, func(node int) []int {
		return topo.Members(topo.ClusterOf(node))
	}, nil)
	fw.solver = &routing.LocalIntraSolver{Topo: topo, States: states, Indexes: fw.indexes}
	return fw, nil
}

// Route answers a service request (overlay-index endpoints) with the
// hierarchical §5 procedure, computed afresh on every call.
func (f *Framework) Route(req svc.Request) (*routing.Path, error) {
	res, err := f.RouteDetailed(req)
	if err != nil {
		return nil, err
	}
	return res.Path, nil
}

// RouteDetailed returns the full routing result, including the CSP and
// child requests (the Fig. 7 intermediate artifacts).
func (f *Framework) RouteDetailed(req svc.Request) (*routing.Result, error) {
	if err := req.Validate(f.topo.N()); err != nil {
		return nil, err
	}
	r, err := f.routerFor(req.Dest)
	if err != nil {
		return nil, err
	}
	return r.Route(req)
}

// routerFor returns the cached router for a destination proxy, building it
// on first use. req.Validate has already bounds-checked dest.
func (f *Framework) routerFor(dest int) (*routing.HierarchicalRouter, error) {
	if r := f.routers[dest].Load(); r != nil {
		return r, nil
	}
	view, err := f.topo.SharedView(dest)
	if err != nil {
		return nil, err
	}
	r := &routing.HierarchicalRouter{
		View:            view,
		State:           &f.states[dest],
		Intra:           f.solver,
		ClusterOfSource: f.topo.ClusterOf,
		Mode:            f.relax,
		Index:           f.indexes.For(dest),
	}
	f.routers[dest].Store(r)
	return r, nil
}

// Topology exposes the constructed HFC topology.
func (f *Framework) Topology() *hfc.Topology { return f.topo }

// States exposes the converged per-proxy routing state.
func (f *Framework) States() []state.NodeState { return f.states }

// Capabilities returns the proxy service deployments the framework was
// built with.
func (f *Framework) Capabilities() []svc.CapabilitySet { return f.caps }

// StateMessageStats reports the traffic of the state-distribution round.
func (f *Framework) StateMessageStats() state.MessageStats { return f.stateMsgs }

// LandmarkCoords returns the embedded positions of the landmarks.
func (f *Framework) LandmarkCoords() []coords.Point { return f.landmarks }

// N returns the overlay size.
func (f *Framework) N() int { return f.topo.N() }

// NumClusters returns the detected cluster count.
func (f *Framework) NumClusters() int { return f.topo.NumClusters() }

// Validate re-checks the framework's structural invariants: the HFC
// topology's border properties and state convergence.
func (f *Framework) Validate() error {
	if err := f.topo.Validate(); err != nil {
		return err
	}
	return state.VerifyConvergence(f.topo, f.caps, f.states)
}
