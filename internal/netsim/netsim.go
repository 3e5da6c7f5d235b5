// Package netsim simulates the physical Internet underneath the service
// overlay. It plays the role ns-2 plays in the paper: given a generated
// topology it answers end-to-end delay queries (shortest-path propagation
// delay) and simulates application-level RTT measurements ("pings") with
// multiplicative noise, of which the measurement layer takes the minimum of
// several probes as the paper prescribes (§3.1).
package netsim

import (
	"errors"
	"fmt"
	"math/rand"

	"hfc/internal/graph"
	"hfc/internal/topology"
)

// Network is a delay oracle over a physical topology. It is immutable after
// construction and safe for concurrent use.
type Network struct {
	topo *topology.Topology
	// csr is the delay graph in the form every shortest-path run reads:
	// the all-pairs precomputation in New and Bottleneck's trees.
	csr  *graph.CSR
	apsp *graph.APSP
	// noiseMax bounds the multiplicative measurement noise: a single probe
	// observes latency · (1 + U[0, noiseMax]).
	noiseMax float64
	// bw caches shortest-path trees for Bottleneck queries.
	bw bwState
	// faults holds the per-link fault overrides (see faults.go); the table
	// is internally synchronized, so installing faults is the one mutation
	// a Network supports after construction.
	faults *FaultTable
}

// Option customizes network construction.
type Option func(*Network)

// WithNoise sets the maximum multiplicative probe noise (default 0.25,
// i.e. a single probe can overshoot the true delay by up to 25%). Noise is
// always non-negative: queueing only ever adds delay to the propagation
// floor, which is why taking the minimum of several probes recovers a value
// close to the true distance.
func WithNoise(max float64) Option {
	return func(n *Network) { n.noiseMax = max }
}

// New builds a delay oracle for topo by computing all-pairs shortest-path
// delays once up front.
func New(topo *topology.Topology, opts ...Option) (*Network, error) {
	if topo == nil {
		return nil, errors.New("netsim: nil topology")
	}
	if !topo.Graph.Connected() {
		return nil, errors.New("netsim: topology is disconnected")
	}
	n := &Network{topo: topo, noiseMax: 0.25, faults: NewFaultTable()}
	for _, opt := range opts {
		opt(n)
	}
	if n.noiseMax < 0 {
		return nil, fmt.Errorf("netsim: negative noise bound %v", n.noiseMax)
	}
	csr, err := graph.NewCSR(topo.Graph)
	if err != nil {
		return nil, fmt.Errorf("netsim: computing delays: %w", err)
	}
	apsp, err := csr.AllPairsShortestPaths()
	if err != nil {
		return nil, fmt.Errorf("netsim: computing delays: %w", err)
	}
	// Clustering and MST construction treat latencies as a metric; make the
	// matrix exactly symmetric (Dijkstra leaves ULP-level asymmetry).
	apsp.Symmetrize()
	n.csr, n.apsp = csr, apsp
	return n, nil
}

// Topology returns the underlying physical topology.
func (n *Network) Topology() *topology.Topology { return n.topo }

// N returns the number of physical nodes.
func (n *Network) N() int { return n.topo.N() }

// Latency returns the true one-way propagation delay between physical nodes
// u and v in milliseconds. It panics on out-of-range IDs, which indicates a
// programming error in the caller.
func (n *Network) Latency(u, v int) float64 {
	if u < 0 || u >= n.N() || v < 0 || v >= n.N() {
		panic(fmt.Sprintf("netsim: latency query (%d,%d) out of range [0,%d)", u, v, n.N()))
	}
	return n.apsp.Dist(u, v)
}

// Ping simulates one application-level delay measurement between u and v:
// the true latency, adjusted for any installed link fault (delay inflation
// and jitter; see Faults), then inflated by multiplicative noise drawn from
// rng. Loss is not modeled here — callers simulating datagrams sample Lost
// separately, since a lost probe yields no measurement at all.
func (n *Network) Ping(rng *rand.Rand, u, v int) float64 {
	base := n.Latency(u, v)
	if f, ok := n.faults.Lookup(u, v); ok {
		var jitter float64
		if f.JitterMS > 0 {
			jitter = rng.Float64()
		}
		base = f.DelayMS(base, jitter)
	}
	if n.noiseMax == 0 {
		return base
	}
	return base * (1 + rng.Float64()*n.noiseMax)
}

// MeasureMin returns the minimum of probes pings between u and v — the
// noise-suppression procedure from §3.1 ("To minimize the effect of Internet
// noises, we take the minimum value of several measurements").
func (n *Network) MeasureMin(rng *rand.Rand, u, v, probes int) (float64, error) {
	if probes < 1 {
		return 0, fmt.Errorf("netsim: probe count %d must be >= 1", probes)
	}
	best := n.Ping(rng, u, v)
	for i := 1; i < probes; i++ {
		if p := n.Ping(rng, u, v); p < best {
			best = p
		}
	}
	return best, nil
}
