package qos

import (
	"errors"
	"fmt"
	"math"

	"hfc/internal/hfc"
	"hfc/internal/svc"
)

// ClusterQoS is the aggregated QoS state one cluster advertises — the §7
// answer to "how should QoS be aggregated into meaningful routing state".
// It is O(#services + 1) per cluster, preserving the framework's state
// scalability.
type ClusterQoS struct {
	// MinLoadPerService maps each service available in the cluster to the
	// load of its least-loaded provider: an optimistic bound — if even
	// this exceeds the request's MaxLoad, no provider in the cluster can
	// serve it.
	MinLoadPerService map[svc.Service]float64
	// BandwidthFloor is the minimum available bandwidth over all
	// intra-cluster node pairs: a pessimistic bound — any intra-cluster
	// segment is guaranteed at least this much.
	BandwidthFloor float64
	// BandwidthCeiling is the maximum over intra-cluster pairs: an
	// optimistic bound — no intra-cluster segment can offer more. The
	// floor/ceiling pair is the classical topology-aggregation interval
	// (cf. the paper's [9][13] QoS-aggregation citations).
	BandwidthCeiling float64
}

// Aggregates is the full aggregated QoS state of the system, computed once
// per state round (in a deployment, border proxies would piggyback these
// values on their §4 aggregate-state messages).
type Aggregates struct {
	// Clusters holds per-cluster aggregates, indexed by cluster ID.
	Clusters []ClusterQoS
	// ExternalBandwidth maps the normalized cluster pair {lo, hi} to the
	// measured bandwidth of its border link.
	ExternalBandwidth map[[2]int]float64
}

// Aggregate computes the advertised QoS state for every cluster of an HFC
// topology from the ground-truth profile and per-proxy capabilities.
func Aggregate(topo *hfc.Topology, caps []svc.CapabilitySet, prof *Profile) (*Aggregates, error) {
	if topo == nil {
		return nil, errors.New("qos: nil topology")
	}
	if len(caps) != topo.N() {
		return nil, fmt.Errorf("qos: %d capability sets for %d nodes", len(caps), topo.N())
	}
	if err := prof.Validate(topo.N()); err != nil {
		return nil, err
	}
	k := topo.NumClusters()
	agg := &Aggregates{
		Clusters:          make([]ClusterQoS, k),
		ExternalBandwidth: make(map[[2]int]float64),
	}
	for c := 0; c < k; c++ {
		members := topo.Members(c)
		cq := ClusterQoS{
			MinLoadPerService: make(map[svc.Service]float64),
			BandwidthFloor:    math.Inf(1),
			BandwidthCeiling:  math.Inf(1),
		}
		for _, m := range members {
			for s := range caps[m] {
				if best, ok := cq.MinLoadPerService[s]; !ok || prof.Load[m] < best {
					cq.MinLoadPerService[s] = prof.Load[m]
				}
			}
		}
		if len(members) > 1 {
			cq.BandwidthCeiling = 0
			for i, u := range members {
				for _, v := range members[i+1:] {
					bw, err := prof.Bandwidth(u, v)
					if err != nil {
						return nil, fmt.Errorf("qos: aggregating cluster %d: %w", c, err)
					}
					if bw < cq.BandwidthFloor {
						cq.BandwidthFloor = bw
					}
					if bw > cq.BandwidthCeiling {
						cq.BandwidthCeiling = bw
					}
				}
			}
		}
		agg.Clusters[c] = cq
	}
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			u, v, err := topo.Border(a, b)
			if err != nil {
				return nil, err
			}
			bw, err := prof.Bandwidth(u, v)
			if err != nil {
				return nil, fmt.Errorf("qos: measuring external link (%d,%d): %w", a, b, err)
			}
			agg.ExternalBandwidth[[2]int{a, b}] = bw
		}
	}
	return agg, nil
}

// Policy selects how aggregated bandwidth intervals gate cluster-level
// admission.
type Policy int

// Admission policies. Enums start at one so the zero value is invalid.
const (
	// PolicyOptimistic admits a cluster when its bandwidth CEILING meets
	// the demand: cluster-level admission may prove wrong, but the exact
	// intra-cluster solving at the conquer stage still enforces the true
	// constraints on every hop, relay hops included, so a request is never
	// falsely satisfied — it fails at the child instead. This is the
	// default: far fewer false blocks at the price of occasional wasted
	// child computations.
	PolicyOptimistic Policy = iota + 1
	// PolicyPessimistic admits a cluster only when its bandwidth FLOOR
	// meets the demand: first-try success is guaranteed, but coarse
	// clusters with one thin internal pair block many feasible requests.
	PolicyPessimistic
)

// String returns a short label for the policy.
func (p Policy) String() string {
	switch p {
	case PolicyOptimistic:
		return "optimistic"
	case PolicyPessimistic:
		return "pessimistic"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ClusterAdmissible reports whether the aggregate state admits cluster c as
// a provider of service s under the constraints: the cluster's best
// provider meets the load bound, and the cluster's aggregated bandwidth
// interval meets the bandwidth bound per the policy.
func (a *Aggregates) ClusterAdmissible(topo *hfc.Topology, s svc.Service, c int, cons Constraints, policy Policy) bool {
	if c < 0 || c >= len(a.Clusters) {
		return false
	}
	cq := a.Clusters[c]
	best, ok := cq.MinLoadPerService[s]
	if !ok || best > cons.maxLoad() {
		return false
	}
	if cons.MinBandwidth > 0 && len(topo.Members(c)) > 1 {
		bound := cq.BandwidthCeiling
		if policy == PolicyPessimistic {
			bound = cq.BandwidthFloor
		}
		if bound < cons.MinBandwidth {
			return false
		}
	}
	return true
}

// CrossingAdmissible reports whether the external link between clusters a
// and b meets the bandwidth bound.
func (a *Aggregates) CrossingAdmissible(x, y int, cons Constraints) bool {
	if cons.MinBandwidth == 0 {
		return true
	}
	lo, hi := x, y
	if lo > hi {
		lo, hi = hi, lo
	}
	bw, ok := a.ExternalBandwidth[[2]int{lo, hi}]
	return ok && bw >= cons.MinBandwidth
}
