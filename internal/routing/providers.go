package routing

import (
	"sync"

	"hfc/internal/state"
	"hfc/internal/svc"
)

// ProviderIndex is the inverted service-capability index one resolver proxy
// derives from its converged routing state: for every service, the sorted
// own-cluster providers (from SCT_P) and the sorted clusters whose
// aggregate offers it (from SCT_C). Request resolution is lookup-driven
// against this index instead of rescanning every cluster member's
// capability set per service per request.
//
// The index is immutable after construction; the returned slices are shared
// and must be treated as read-only. Staleness is the caller's concern:
// rebuild the index when the underlying state advances (see LazyIndexes).
type ProviderIndex struct {
	local    map[svc.Service][]int
	clusters map[svc.Service][]int
	// fn is the ProviderFunc adapter, bound once at build time so hot
	// paths can pass the index into FindPath without a per-call closure
	// allocation.
	fn ProviderFunc
}

// BuildProviderIndex inverts one node's state tables. members must be the
// sorted member list of the node's cluster (hfc.Topology.Members order):
// provider lists come out in exactly the order the previous per-request
// membership scan produced, so routing decisions are bit-identical.
func BuildProviderIndex(st *state.NodeState, members []int) *ProviderIndex {
	return newProviderIndex(invert(st.SCTP, members), invert(st.SCTC, nil))
}

func newProviderIndex(local, clusters map[svc.Service][]int) *ProviderIndex {
	pi := &ProviderIndex{local: local, clusters: clusters}
	pi.fn = func(s svc.Service) []int { return pi.local[s] }
	return pi
}

// invert turns one SCT table into per-service lists of ids, each ascending:
// entry i of the table is ids[i] (SCT_P against the cluster's sorted members)
// or, with nil ids, i itself (SCT_C, indexed by cluster). Entries not learned
// yet list nothing.
//
// It counts, then fills: the table's sets sum to the size of one backing
// array, a first pass counts each service's list, the array is cut into one
// window per service, and a second pass writes the ids — so a table costs the
// map and one array however many services it lists. The table is walked in
// entry order and an entry lists itself once per service, so each list is
// ascending exactly when ids is — which both callers' are (sorted members,
// cluster ids) and nothing here re-checks.
func invert(table []svc.CapabilitySet, ids []int) map[svc.Service][]int {
	total := 0
	for _, set := range table {
		total += len(set)
	}
	backing := make([]int, total)
	lists := make(map[svc.Service][]int)
	for _, set := range table {
		for s := range set {
			// Until the cut a list is its count: an empty window that wide.
			lists[s] = backing[: 0 : cap(lists[s])+1]
		}
	}
	// Windows are disjoint: where one sits in the array changes no list.
	off := 0
	for s, l := range lists {
		lists[s] = backing[off : off : off+cap(l)]
		off += cap(l)
	}
	for i, set := range table {
		id := i
		if ids != nil {
			id = ids[i]
		}
		for s := range set {
			lists[s] = append(lists[s], id)
		}
	}
	return lists
}

// Providers returns the sorted own-cluster providers of s (shared slice —
// do not modify). Nil when no member provides s.
func (pi *ProviderIndex) Providers(s svc.Service) []int { return pi.local[s] }

// ClustersProviding returns the sorted cluster IDs whose aggregate set
// includes s (shared slice — do not modify). Matches
// state.NodeState.ClustersProviding on the state the index was built from.
func (pi *ProviderIndex) ClustersProviding(s svc.Service) []int { return pi.clusters[s] }

// ProviderFunc returns the index's SCT_P lookup as a ProviderFunc without
// allocating a new closure per call.
func (pi *ProviderIndex) ProviderFunc() ProviderFunc { return pi.fn }

// LazyIndexes caches ProviderIndexes over a NodeState slice, inverting a
// table the first time a resolve asks for it and keeping the inversion for as
// long as the table stays in the states.
//
// Each half of an index is cached by the table it inverts, not by the node
// asking: the local half per SCT_P table, the clusters half per SCT_C table. On
// state.Distribute output the members of a cluster therefore share one
// index and all indexes share one clusters half — K+1 inversions, not n.
//
// Tables are read-only, so a half never goes stale; what ends its life is its
// table being replaced. An owner that replaces a table (state.Update under
// serve.Engine's state write lock) calls Forget with the old one before a
// reader can ask again, and nothing else drops a half: K+1 stay cached however
// many updates pass. An owner that instead edits tables in place passes a
// version and moves it with every edit — a moved version drops everything.
type LazyIndexes struct {
	states  []state.NodeState
	members func(node int) []int
	// version, when non-nil, supplies a stamp that moves whenever a table
	// was edited in place; nil for owners that only ever replace tables.
	version func() uint64

	mu    sync.RWMutex
	stamp uint64 // version the cached halves were built at; guarded by mu
	// local and clusters hold the halves, keyed by the first-entry address of
	// the SCT_P / SCT_C table inverted. The key keeps its table reachable, so
	// an address names one table for as long as its half is cached.
	local    map[*svc.CapabilitySet]map[svc.Service][]int // guarded by mu
	clusters map[*svc.CapabilitySet]map[svc.Service][]int // guarded by mu
	// idx holds the indexes assembled from two cached halves, keyed by the
	// pair, so that every node over one pair of tables gets one index.
	idx map[[2]*svc.CapabilitySet]*ProviderIndex // guarded by mu
}

// tableID is the identity a table is cached under: the address of its first
// entry, nil for an empty table (every empty table inverts to the same
// nothing).
func tableID(table []svc.CapabilitySet) *svc.CapabilitySet {
	if len(table) == 0 {
		return nil
	}
	return &table[0]
}

// NewLazyIndexes builds an empty index cache. members maps a node to its
// cluster's sorted member list; version is nil unless tables are edited in
// place (see LazyIndexes).
func NewLazyIndexes(states []state.NodeState, members func(node int) []int, version func() uint64) *LazyIndexes {
	return &LazyIndexes{
		states:   states,
		members:  members,
		version:  version,
		local:    make(map[*svc.CapabilitySet]map[svc.Service][]int),
		clusters: make(map[*svc.CapabilitySet]map[svc.Service][]int),
		idx:      make(map[[2]*svc.CapabilitySet]*ProviderIndex),
	}
}

// For returns node's provider index, inverting whichever of its two tables
// has no cached half.
func (l *LazyIndexes) For(node int) *ProviderIndex {
	var v uint64
	if l.version != nil {
		v = l.version()
	}
	st := &l.states[node]
	key := [2]*svc.CapabilitySet{tableID(st.SCTP), tableID(st.SCTC)}
	l.mu.RLock()
	pi, ok := l.idx[key]
	ok = ok && l.stamp == v
	l.mu.RUnlock()
	if ok {
		return pi
	}
	members := l.members(node)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stamp != v {
		clear(l.local)
		clear(l.clusters)
		clear(l.idx)
		l.stamp = v
	}
	if pi, ok := l.idx[key]; ok {
		return pi
	}
	local, ok := l.local[key[0]]
	if !ok {
		local = invert(st.SCTP, members)
		l.local[key[0]] = local
	}
	clusters, ok := l.clusters[key[1]]
	if !ok {
		clusters = invert(st.SCTC, nil)
		l.clusters[key[1]] = clusters
	}
	pi = newProviderIndex(local, clusters)
	l.idx[key] = pi
	return pi
}

// Forget drops the half inverted from table — an SCT_P or an SCT_C that has
// just been replaced in the states — and every index assembled from it. The
// halves of the tables still in use stay.
//
//hfc:hotpath budget=0
func (l *LazyIndexes) Forget(table []svc.CapabilitySet) {
	id := tableID(table)
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.local, id)
	delete(l.clusters, id)
	for key := range l.idx {
		if key[0] == id || key[1] == id {
			delete(l.idx, key)
		}
	}
}

// Len reports how many halves are cached: local ones (one per SCT_P table
// inverted) and clusters ones (one per SCT_C table).
func (l *LazyIndexes) Len() (local, clusters int) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.local), len(l.clusters)
}
