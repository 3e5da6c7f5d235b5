// Package qos implements the paper's §7 future-work extension: embedding
// QoS — network bandwidth and machine load — into the hierarchical service
// topology, with an explicit aggregation scheme for the hierarchical tier.
//
// Model:
//
//   - every proxy has a machine load in [0, 1); a service instance is
//     usable only on proxies whose load is at or below the request's
//     MaxLoad;
//   - every overlay hop (u, v) has an available bandwidth — the bottleneck
//     capacity of the physical route between the two proxies; a service
//     path is feasible only if every hop offers at least MinBandwidth.
//
// Flat QoS routing prunes the service DAG by both constraints and returns
// the delay-optimal feasible path (FindPath). Hierarchical QoS routing
// aggregates per cluster — the best (minimum) load per service and a
// pessimistic intra-cluster bandwidth floor — plus the measured bandwidth
// of each external border link, and feeds those aggregates into the §5
// cluster-level search through the routing package's admissibility hooks;
// child requests are then solved exactly under the true constraints
// (Router): routing's own child solve with the load bound as its provider
// filter and the bandwidth bound as its hop filter, a relay-only child's
// single hop included. Aggregation is conservative: a hierarchical route is
// never infeasible in reality, but some feasible requests may be falsely
// blocked — the precision/state tradeoff the paper's §7 anticipates,
// measured by the qos experiment.
package qos

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"hfc/internal/routing"
	"hfc/internal/svc"
)

// BandwidthFunc reports the available bandwidth between two overlay nodes
// (Mbps). Implementations must be symmetric.
type BandwidthFunc func(u, v int) (float64, error)

// Profile is the QoS ground truth of an overlay.
type Profile struct {
	// Load[i] is overlay node i's machine load in [0, 1).
	Load []float64
	// Bandwidth is the overlay-hop bandwidth oracle.
	Bandwidth BandwidthFunc
}

// Validate checks structural sanity against an overlay of n nodes.
func (p *Profile) Validate(n int) error {
	if p == nil {
		return errors.New("qos: nil profile")
	}
	if len(p.Load) != n {
		return fmt.Errorf("qos: %d loads for %d nodes", len(p.Load), n)
	}
	for i, l := range p.Load {
		if l < 0 || l >= 1 || math.IsNaN(l) {
			return fmt.Errorf("qos: node %d load %v outside [0,1)", i, l)
		}
	}
	if p.Bandwidth == nil {
		return errors.New("qos: nil bandwidth oracle")
	}
	return nil
}

// RandomLoads draws n independent loads uniform in [lo, hi).
func RandomLoads(rng *rand.Rand, n int, lo, hi float64) ([]float64, error) {
	if rng == nil {
		return nil, errors.New("qos: nil rng")
	}
	if n < 1 {
		return nil, fmt.Errorf("qos: node count %d must be >= 1", n)
	}
	if lo < 0 || hi <= lo || hi > 1 {
		return nil, fmt.Errorf("qos: load range [%v,%v) outside [0,1)", lo, hi)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + rng.Float64()*(hi-lo)
	}
	return out, nil
}

// Constraints are a request's QoS requirements.
type Constraints struct {
	// MinBandwidth is the bandwidth every overlay hop must offer (Mbps);
	// zero disables the constraint.
	MinBandwidth float64
	// MaxLoad is the highest machine load a providing proxy may have; the
	// zero value is interpreted as "no constraint" (1.0).
	MaxLoad float64
}

func (c Constraints) maxLoad() float64 {
	if c.MaxLoad == 0 {
		return 1
	}
	return c.MaxLoad
}

func (c Constraints) validate() error {
	if c.MinBandwidth < 0 {
		return fmt.Errorf("qos: negative bandwidth constraint %v", c.MinBandwidth)
	}
	if c.MaxLoad < 0 || c.MaxLoad > 1 {
		return fmt.Errorf("qos: load constraint %v outside [0,1]", c.MaxLoad)
	}
	return nil
}

// FindPath computes the delay-optimal service path satisfying the
// constraints under full global QoS state — the flat baseline. providers
// and oracle are the same inputs as routing.FindPath; load-violating
// providers and bandwidth-violating hops are pruned before the search.
func FindPath(req svc.Request, providers routing.ProviderFunc, oracle routing.Oracle, prof *Profile, cons Constraints, exp routing.Expander) (*routing.Path, error) {
	if err := cons.validate(); err != nil {
		return nil, err
	}
	if providers == nil {
		return nil, errors.New("qos: nil provider function")
	}
	if prof == nil {
		return nil, errors.New("qos: nil profile")
	}
	usable, admissible, oracleErr := prof.pruning(cons, exp)
	filteredProviders := func(s svc.Service) []int {
		var out []int
		for _, p := range providers(s) {
			if usable(p) {
				out = append(out, p)
			}
		}
		return out
	}
	path, err := routing.FindPathFiltered(req, filteredProviders, oracle, exp, admissible)
	if *oracleErr != nil {
		return nil, fmt.Errorf("qos: bandwidth oracle: %w", *oracleErr)
	}
	return path, err
}

// pruning translates the constraints into the two predicates routing prunes
// a service DAG with, in the flat search and in every child solve alike: the
// proxies a service may be placed on (the load bound) and the overlay hops a
// path may lay (the bandwidth bound; nil when there is none). A hop the
// bandwidth oracle fails on is rejected and the failure kept in *oracleErr,
// which the caller checks once the search has returned.
func (p *Profile) pruning(cons Constraints, exp routing.Expander) (usable func(node int) bool, admissible routing.EdgeFilter, oracleErr *error) {
	usable = func(node int) bool {
		return node < len(p.Load) && p.Load[node] <= cons.maxLoad()
	}
	oracleErr = new(error)
	if cons.MinBandwidth <= 0 {
		return usable, nil, oracleErr
	}
	// The constraint applies to every hop of the CONCRETE path, so when the
	// topology expands a logical hop through relays (mesh chains, HFC border
	// pairs) each expanded segment must clear the bound.
	admissible = func(u, v int) bool {
		seq := []int{u, v}
		if exp != nil {
			expanded, err := exp.Expand(u, v)
			if err != nil {
				*oracleErr = err
				return false
			}
			seq = expanded
		}
		for i := 0; i+1 < len(seq); i++ {
			if seq[i] == seq[i+1] {
				continue
			}
			bw, err := p.Bandwidth(seq[i], seq[i+1])
			if err != nil {
				*oracleErr = err
				return false
			}
			if bw < cons.MinBandwidth {
				return false
			}
		}
		return true
	}
	return usable, admissible, oracleErr
}

// VerifyPath checks a concrete path against the profile and constraints:
// every providing proxy within the load bound, every hop within the
// bandwidth bound. Used by tests and by callers that admit traffic.
func VerifyPath(p *routing.Path, prof *Profile, cons Constraints) error {
	if p == nil {
		return errors.New("qos: nil path")
	}
	for _, h := range p.Hops {
		if h.Service != "" && prof.Load[h.Node] > cons.maxLoad() {
			return fmt.Errorf("qos: provider %d load %v exceeds %v", h.Node, prof.Load[h.Node], cons.maxLoad())
		}
	}
	if cons.MinBandwidth > 0 {
		for i := 0; i+1 < len(p.Hops); i++ {
			u, v := p.Hops[i].Node, p.Hops[i+1].Node
			if u == v {
				continue
			}
			bw, err := prof.Bandwidth(u, v)
			if err != nil {
				return fmt.Errorf("qos: bandwidth oracle: %w", err)
			}
			if bw < cons.MinBandwidth {
				return fmt.Errorf("qos: hop (%d,%d) bandwidth %v below %v", u, v, bw, cons.MinBandwidth)
			}
		}
	}
	return nil
}
