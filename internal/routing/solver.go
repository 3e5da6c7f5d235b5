package routing

import (
	"errors"
	"fmt"

	"hfc/internal/hfc"
	"hfc/internal/state"
	"hfc/internal/svc"
)

// IntraSolve is the §5.2 solve of one child request as the child's resolver
// proxy runs it: inside a cluster the HFC topology is fully connected, so
// the flat algorithm of [11] over the resolver's SCT_P returns the optimal
// intra-cluster mapping. It is the one implementation; the hosts that
// resolve children — LocalIntraSolver over converged state, a proxy of the
// overlay runtime over its live table, the QoS router under pruning — differ
// only in the fields they fill.
type IntraSolve struct {
	// Members lists the cluster's proxies in index order and SCTP is the
	// resolver's table of their capability sets, entry r for Members[r]: the
	// providers of a service are the members SCTP lists it on. Whoever owns
	// a live SCTP holds its read lock across the solve.
	Members []int
	SCTP    []svc.CapabilitySet
	// Indexes, when non-nil, answers the same lookup from the resolver's
	// prebuilt inversion of SCTP instead of scanning Members per service.
	Indexes *LazyIndexes
	// Usable, when non-nil, is asked per candidate provider and drops those
	// it rejects: a failure detector's liveness, an availability tracker, a
	// machine-load bound. The child's endpoints relay and are not asked.
	Usable func(node int) bool
	// Oracle supplies intra-cluster distances.
	Oracle Oracle
	// Admissible, when non-nil, must admit every overlay hop the child path
	// lays, a relay-only child's single hop included.
	Admissible EdgeFilter
}

// Append places child's services on the cluster's providers, or relays
// between its endpoints when it has none to place. It appends the child
// path's hops to dst and returns them with the path's cost; on error the hops
// are nil. dst grows at most once, so a buffer with room for the path makes a
// solve that allocates nothing.
//
//hfc:hotpath budget=5
func (s IntraSolve) Append(child ChildRequest, dst []Hop) ([]Hop, float64, error) {
	if s.Oracle == nil {
		return nil, 0, errors.New("routing: nil oracle")
	}
	// A relay-only child: the cluster just carries the stream between its
	// borders (or an endpoint and a border).
	if len(child.Services) == 0 {
		if child.Source == child.Dest {
			//hfcvet:ignore hotalloc grows only past the caller's buffer
			return append(dst, Hop{Node: child.Source}), 0, nil
		}
		if s.Admissible != nil && !s.Admissible(child.Source, child.Dest) {
			return nil, 0, ErrInfeasible
		}
		//hfcvet:ignore hotalloc grows only past the caller's buffer
		return append(dst, Hop{Node: child.Source}, Hop{Node: child.Dest}), s.Oracle.Dist(child.Source, child.Dest), nil
	}
	// The chain is built in the search's own scratch and validated here,
	// once; the search below takes it as is.
	sc := scratchPool.Get().(*pathScratch)
	defer scratchPool.Put(sc)
	sg, err := sc.linear(child.Services)
	if err != nil {
		return nil, 0, fmt.Errorf("routing: child service chain: %w", err)
	}
	// The per-service lookup: one list per service — the index's own shared
	// list when nothing is filtered, otherwise a fresh one filled in a single
	// pass. The closures stay in this function so they live on its stack.
	var providers ProviderFunc
	usable := s.Usable
	if s.Indexes == nil {
		members, sctp := s.Members, s.SCTP
		providers = func(x svc.Service) []int {
			var out []int
			for r, m := range members {
				if usable != nil && !usable(m) {
					continue
				}
				if r < len(sctp) && sctp[r].Has(x) {
					out = append(out, m)
				}
			}
			return out
		}
	} else if index := s.Indexes.For(child.Resolver); usable == nil {
		providers = index.ProviderFunc()
	} else {
		providers = func(x svc.Service) []int {
			all := index.Providers(x)
			// The index hands back a shared slice; filter into a copy.
			out := make([]int, 0, len(all))
			for _, m := range all {
				if usable(m) {
					out = append(out, m)
				}
			}
			return out
		}
	}
	req := svc.Request{Source: child.Source, Dest: child.Dest, SG: sg}
	return sc.search(req, providers, s.Oracle, nil, s.Admissible, dst)
}

// Solve is Append into a path of its own.
func (s IntraSolve) Solve(child ChildRequest) (*Path, error) {
	return pathOf(s.Append(child, nil))
}

// LocalIntraSolver resolves child requests by direct computation (§5.2),
// using only the knowledge the child's resolver proxy legitimately holds:
// its SCT_P for providers and its own-cluster member coordinates for
// distances. It checks the child against the topology and hands IntraSolve
// the resolver's converged table.
type LocalIntraSolver struct {
	// Topo supplies membership and intra-cluster distances.
	Topo *hfc.Topology
	// States holds the converged per-node routing state; the resolver's
	// SCT_P supplies the provider lists.
	States []state.NodeState
	// Indexes, when non-nil, supplies prebuilt inverted provider indexes
	// per resolver, turning the per-service provider lookup into a map
	// access instead of a scan over every cluster member's capability set.
	// Share one LazyIndexes across solvers serving the same states —
	// serve.Engine does — so indexes are built once per state round, not
	// per request.
	Indexes *LazyIndexes
	// Exclude, when non-nil, removes nodes from provider selection — the
	// hook an availability tracker (serve.Engine's unavailable set) filters
	// suspected-partitioned proxies through. It must be safe for concurrent
	// use.
	Exclude func(node int) bool
	// ExcludeAny, when non-nil alongside Exclude, reports whether ANY node
	// is currently excluded. When it returns false the solver skips the
	// per-service filtered copy of every provider list entirely — the
	// common fault-free steady state — instead of copying each list only to
	// keep every element. It must be safe for concurrent use and may be
	// conservatively true.
	ExcludeAny func() bool
}

var (
	_ IntraSolver   = (*LocalIntraSolver)(nil)
	_ ChildAppender = (*LocalIntraSolver)(nil)
)

// SolveChild implements IntraSolver.
func (s *LocalIntraSolver) SolveChild(child ChildRequest) (*Path, error) {
	return pathOf(s.AppendChild(child, nil))
}

// AppendChild implements ChildAppender: the child is checked against the
// topology and solved over the resolver's converged table by IntraSolve.Append.
//
//hfc:hotpath budget=0
func (s *LocalIntraSolver) AppendChild(child ChildRequest, dst []Hop) ([]Hop, float64, error) {
	if s.Topo == nil {
		return nil, 0, errors.New("routing: intra solver has nil topology")
	}
	if len(s.States) != s.Topo.N() {
		//hfcvet:ignore hotalloc cold misconfigured-solver error path
		return nil, 0, fmt.Errorf("routing: intra solver has %d states for %d nodes", len(s.States), s.Topo.N())
	}
	if s.Topo.ClusterOf(child.Source) != child.Cluster {
		//hfcvet:ignore hotalloc cold malformed-child error path
		return nil, 0, fmt.Errorf("routing: child source %d not in cluster %d", child.Source, child.Cluster)
	}
	if s.Topo.ClusterOf(child.Dest) != child.Cluster {
		//hfcvet:ignore hotalloc cold malformed-child error path
		return nil, 0, fmt.Errorf("routing: child destination %d not in cluster %d", child.Dest, child.Cluster)
	}
	if s.Topo.ClusterOf(child.Resolver) != child.Cluster {
		//hfcvet:ignore hotalloc cold malformed-child error path
		return nil, 0, fmt.Errorf("routing: child resolver %d not in cluster %d", child.Resolver, child.Cluster)
	}
	solve := IntraSolve{
		Members: s.Topo.Members(child.Cluster),
		SCTP:    s.States[child.Resolver].SCTP,
		Indexes: s.Indexes,
		Oracle:  s.Topo,
	}
	if s.Exclude != nil && (s.ExcludeAny == nil || s.ExcludeAny()) {
		//hfcvet:ignore hotalloc only while a proxy is marked unavailable
		solve.Usable = func(node int) bool { return !s.Exclude(node) }
	}
	return solve.Append(child, dst)
}
