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
// divide-and-conquer routing of §5 through one serve.Engine, the repo's one
// resolver over converged state.
package core

import (
	"errors"
	"fmt"
	"math/rand"

	"hfc/internal/cluster"
	"hfc/internal/coords"
	"hfc/internal/hfc"
	"hfc/internal/routing"
	"hfc/internal/serve"
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
	// Relax selects the cluster-level relaxation mode (§5.1 step 2); the
	// engine reads zero as RelaxBacktrack and rejects an unknown mode.
	Relax routing.RelaxMode
}

func (c Config) withDefaults() Config {
	if c.CoordDim == 0 {
		c.CoordDim = 2
	}
	if c.Probes == 0 {
		c.Probes = 5
	}
	return c
}

// Framework is a bootstrapped HFC service overlay: what Bootstrap built plus
// the one serve.Engine that answers requests over it. The engine owns the
// serving side — route cache, in-flight dedup, capability updates, degraded
// mode, explained routes — and starts from the bootstrap snapshot that
// States, Capabilities and Validate describe.
type Framework struct {
	eng       *serve.Engine
	caps      []svc.CapabilitySet
	states    []state.NodeState
	stateMsgs state.MessageStats
	landmarks []coords.Point
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
	eng, err := serve.NewEngine(topo, capsCopy, states, serve.Config{Relax: cfg.Relax})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Framework{
		eng:       eng,
		caps:      capsCopy,
		states:    states,
		stateMsgs: msgs,
		landmarks: lmPoints,
	}, nil
}

// Route answers a service request (overlay-index endpoints) with the
// hierarchical §5 procedure, through the engine's route cache. The path is
// shared with the cache and read-only.
func (f *Framework) Route(req svc.Request) (*routing.Path, error) {
	return f.eng.Resolve(req)
}

// Engine returns the engine that answers the framework's requests; its
// ResolveExplain hands out the Fig. 7 artifacts (CSP, child requests, child
// paths) of one request.
func (f *Framework) Engine() *serve.Engine { return f.eng }

// Topology exposes the constructed HFC topology.
func (f *Framework) Topology() *hfc.Topology { return f.eng.Topology() }

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
func (f *Framework) N() int { return f.Topology().N() }

// NumClusters returns the detected cluster count.
func (f *Framework) NumClusters() int { return f.Topology().NumClusters() }

// Validate re-checks the framework's structural invariants: the HFC
// topology's border properties and state convergence.
func (f *Framework) Validate() error {
	topo := f.Topology()
	if err := topo.Validate(); err != nil {
		return err
	}
	return state.VerifyConvergence(topo, f.caps, f.states)
}
