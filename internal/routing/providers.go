package routing

import (
	"sort"
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
func invert(table []svc.CapabilitySet, ids []int) map[svc.Service][]int {
	lists := make(map[svc.Service][]int)
	for i, set := range table {
		id := i
		if ids != nil {
			id = ids[i]
		}
		for s := range set {
			lists[s] = append(lists[s], id)
		}
	}
	// One id appends to many services, each exactly once, so the inner set
	// iteration order is irrelevant and lists are ascending when ids are;
	// sort defensively so the contract does not depend on the caller.
	for s := range lists {
		sort.Ints(lists[s])
	}
	return packLists(lists)
}

// packLists rewrites a map of per-service lists so every list is a window
// into one shared CSR-style backing array, replacing len(m) separately grown
// slices (and their append-doubling waste) with a single contiguous
// allocation that hot readers walk with perfect locality. List contents and
// per-list order are unchanged; map keys stay as-is.
func packLists(m map[svc.Service][]int) map[svc.Service][]int {
	total := 0
	keys := make([]svc.Service, 0, len(m))
	for s, l := range m {
		total += len(l)
		keys = append(keys, s)
	}
	// Sorted key order keeps the backing layout deterministic (map
	// iteration order would not change any list's contents, but a
	// reproducible array is worth the sort at build time).
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	backing := make([]int, 0, total)
	for _, s := range keys {
		l := m[s]
		off := len(backing)
		backing = append(backing, l...)
		m[s] = backing[off : off+len(l) : off+len(l)]
	}
	return m
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

// LazyIndexes caches ProviderIndexes over a NodeState slice, rebuilding
// them lazily when the owning engine's invalidation version moves — the
// same token the route cache stamps entries with, so index and cache go
// stale together.
//
// Each half of an index is cached by the table it inverts, not by the node
// asking: the local half per SCT_P table, the clusters half per SCT_C table. On
// state.Distribute output the members of a cluster therefore share one
// index and all indexes share one clusters half — K+1 inversions per
// version, not n.
//
// Readers and the version source must be externally consistent: a caller
// that mutates the states must advance the version before the mutation is
// observable to For (serve.Engine does both under its state write lock).
// Within one version the tables are read-only.
type LazyIndexes struct {
	states  []state.NodeState
	members func(node int) []int
	// version supplies the current invalidation stamp; nil pins version 0
	// (static states, e.g. the synchronous simulation).
	version func() uint64

	mu    sync.RWMutex
	stamp uint64 // version idx was built at; guarded by mu
	// idx is keyed by the first-entry addresses of the (SCT_P, SCT_C) tables
	// inverted. An address names a table only within one version — replacing
	// a table moves the version, and the map is cleared when the stamp moves.
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
// cluster's sorted member list; version may be nil for static states.
func NewLazyIndexes(states []state.NodeState, members func(node int) []int, version func() uint64) *LazyIndexes {
	return &LazyIndexes{
		states:  states,
		members: members,
		version: version,
		idx:     make(map[[2]*svc.CapabilitySet]*ProviderIndex),
	}
}

// For returns node's provider index, inverting on first use and after every
// version advance whichever of its two tables no cached index has inverted.
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
		clear(l.idx)
		l.stamp = v
	}
	if pi, ok := l.idx[key]; ok {
		return pi
	}
	var local, clusters map[svc.Service][]int
	for k, other := range l.idx {
		if k[0] == key[0] {
			//hfcvet:ignore maporder every cached index over one SCT_P table holds the same local half
			local = other.local
		}
		if k[1] == key[1] {
			//hfcvet:ignore maporder every cached index over one SCT_C table holds the same clusters half
			clusters = other.clusters
		}
	}
	if local == nil {
		local = invert(st.SCTP, members)
	}
	if clusters == nil {
		clusters = invert(st.SCTC, nil)
	}
	pi = newProviderIndex(local, clusters)
	l.idx[key] = pi
	return pi
}
