package hfc

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"hfc/internal/coords"
)

// NodeView is the partial-global-state a single proxy holds after the
// election-winner proxy P distributes the topology (Fig. 4): its own
// cluster's ID and membership, the system's cluster/border table, and the
// coordinates of exactly the nodes it is entitled to know — its own cluster
// members plus every border proxy in the system. Hierarchical routing at a
// node must work from this view alone; the experiments count its size to
// reproduce Fig. 9(a).
type NodeView struct {
	// Node is the proxy this view belongs to.
	Node int
	// ClusterID is the proxy's own cluster.
	ClusterID int
	// Members is the sorted membership of the proxy's cluster (including
	// the proxy itself).
	Members []int
	// NumClusters is the number of clusters in the system.
	NumClusters int
	// Borders maps every normalized cluster pair {lo, hi} to its border
	// pair.
	Borders map[[2]int]BorderPair
	// BackupBorders maps every normalized cluster pair {lo, hi} to its
	// ranked backup pairs (node-disjoint spares behind the primary).
	BackupBorders map[[2]int][]BorderPair
	// Coords holds the coordinates the node keeps: own cluster members
	// and all border proxies (backup borders included).
	Coords map[int]coords.Point
	// Alive, when non-nil, is the node's failure detector: Border skips
	// pairs with a crashed endpoint and falls back to the next ranked
	// pair. Nil means every node is presumed live (the fault-free primary
	// behaviour).
	Alive func(node int) bool
	// BorderOverride, when non-nil, is consulted before the view's own
	// border table: it models the §5.2 re-distribution of incrementally
	// re-elected border pairs (a Dynamic maintainer in the runtime). A
	// false ok falls through to the static ranked pairs.
	BorderOverride func(a, b int) (inA, inB int, ok bool)
	// ResolveCoord, when non-nil, supplies coordinates for nodes outside
	// the view's static entitlement — the Fig. 4 coordinate hand-off that
	// accompanies a promoted border's announcement. Dist consults it only
	// after Coords misses.
	ResolveCoord func(node int) (coords.Point, bool)

	// dense caches the SoA mirror of the view's border and coordinate
	// tables (see Dense). Built lazily from the static fields, which must
	// not be mutated after the first Dense call.
	dense atomic.Pointer[DenseTables]
	// topo is set on a SharedView: its dense tables are the topology's.
	topo *Topology
}

// DenseTables is the struct-of-arrays mirror of a view's border and
// coordinate maps, built once per view so hot routing paths replace
// per-lookup map hashing with array indexing. The tables cover only the
// static primary pairs and static coordinates; dynamic concerns (Alive,
// BorderOverride, promoted borders via ResolveCoord) stay with the view's
// map-based methods, which callers fall back to per lookup.
type DenseTables struct {
	// K is the cluster count the square tables are sized for.
	K int
	// BorderInA[a*K+b] is the primary border proxy of cluster a toward
	// cluster b, or -1 when a == b or the view has no pair for (a, b).
	BorderInA []int32
	// Ext[a*K+b] is the embedded length of the primary external link
	// between clusters a and b, or NaN when unknown.
	Ext []float64
	// Pts[id] is node id's coordinate, nil when the view does not hold
	// it. Indexed by node id; covers cluster members and every primary
	// and backup border proxy whose coordinate the view can resolve (on a
	// SharedView: every node, as its ResolveCoord does).
	Pts []coords.Point
}

// Dense returns the view's SoA tables, building them on first use. A
// materialized View builds its own, bounded by its Fig. 4 entitlement; every
// SharedView of a topology gets the topology's one set. The build is
// idempotent; concurrent first calls may build twice and either result wins
// the store. The returned tables are shared and read-only.
func (v *NodeView) Dense() *DenseTables {
	if t := v.dense.Load(); t != nil {
		return t
	}
	var t *DenseTables
	if v.topo != nil {
		t = v.topo.sharedDense()
	} else {
		t = v.buildDense()
	}
	v.dense.Store(t)
	return t
}

// sharedDense returns the dense tables every SharedView of t hands out,
// building them on first use: borders and coordinates are topology-wide and
// immutable after Build, so one K×K mirror serves all n views. Pts aliases
// the topology's point table, exactly what a SharedView's ResolveCoord
// serves.
func (t *Topology) sharedDense() *DenseTables {
	if d := t.dense.Load(); d != nil {
		return d
	}
	k := t.NumClusters()
	d := &DenseTables{K: k, BorderInA: make([]int32, k*k), Ext: make([]float64, k*k), Pts: t.coords.Points}
	for a := 0; a < k; a++ {
		for b := 0; b < k; b++ {
			d.BorderInA[a*k+b], d.Ext[a*k+b] = -1, math.NaN()
			if a != b {
				d.BorderInA[a*k+b] = int32(t.borderInA[a][b])
				d.Ext[a*k+b] = t.Dist(t.borderInA[a][b], t.borderInA[b][a])
			}
		}
	}
	t.dense.Store(d)
	return d
}

// buildDense materializes the dense mirror from the view's maps. Border
// pairs are walked by cluster-pair key (not map iteration) so the build
// is deterministic.
func (v *NodeView) buildDense() *DenseTables {
	k := v.NumClusters
	if k < 0 {
		k = 0
	}
	t := &DenseTables{
		K:         k,
		BorderInA: make([]int32, k*k),
		Ext:       make([]float64, k*k),
	}
	for i := range t.BorderInA {
		t.BorderInA[i] = -1
		t.Ext[i] = math.NaN()
	}
	// Pts covers every node whose coordinate a routing pass may ask for —
	// own-cluster members (the tail hop ends at v.Node) plus all ranked
	// border proxies — and reaches to the largest such id.
	pt := func(id int) coords.Point {
		if id < 0 {
			return nil
		}
		if id >= len(t.Pts) {
			t.Pts = append(t.Pts, make([]coords.Point, id+1-len(t.Pts))...)
		}
		if t.Pts[id] == nil {
			if p, err := v.coordOf(id); err == nil {
				t.Pts[id] = p
			}
		}
		return t.Pts[id]
	}
	pt(v.Node)
	for _, m := range v.Members {
		pt(m)
	}
	for lo := 0; lo < k; lo++ {
		for hi := lo + 1; hi < k; hi++ {
			key := [2]int{lo, hi}
			pair, ok := v.Borders[key]
			if !ok {
				continue
			}
			if pair.Low >= 0 && pair.High >= 0 {
				t.BorderInA[lo*k+hi] = int32(pair.Low)
				t.BorderInA[hi*k+lo] = int32(pair.High)
			}
			if pl, ph := pt(pair.Low), pt(pair.High); pl != nil && ph != nil {
				d := coords.Dist(pl, ph)
				t.Ext[lo*k+hi] = d
				t.Ext[hi*k+lo] = d
			}
			for _, bp := range v.BackupBorders[key] {
				pt(bp.Low)
				pt(bp.High)
			}
		}
	}
	return t
}

// View materializes the Fig. 4 information for one node: an O(K² + |C|)
// copy. It is for callers that count per-proxy state (Fig. 9(a)) and for
// tests that prove routing stays inside the entitlement; routing paths use
// SharedView.
func (t *Topology) View(node int) (*NodeView, error) {
	if node < 0 || node >= t.N() {
		return nil, fmt.Errorf("hfc: view for node %d out of range [0,%d)", node, t.N())
	}
	c := t.ClusterOf(node)
	v := &NodeView{
		Node:          node,
		ClusterID:     c,
		Members:       append([]int(nil), t.Members(c)...),
		NumClusters:   t.NumClusters(),
		Borders:       make(map[[2]int]BorderPair, len(t.borders)),
		BackupBorders: make(map[[2]int][]BorderPair, len(t.backups)),
		Coords:        make(map[int]coords.Point),
	}
	for k, pair := range t.borders {
		v.Borders[k] = pair
	}
	for k, pairs := range t.backups {
		v.BackupBorders[k] = append([]BorderPair(nil), pairs...)
	}
	for _, m := range v.Members {
		v.Coords[m] = t.coords.Points[m].Clone()
	}
	for _, b := range t.borderNodes {
		v.Coords[b] = t.coords.Points[b].Clone()
	}
	for _, b := range t.backupNodes {
		v.Coords[b] = t.coords.Points[b].Clone()
	}
	return v, nil
}

// SharedView materializes a node's view without copying: Members aliases
// the topology's membership slice and Borders/BackupBorders alias the
// topology's own maps, with coordinates served on demand through
// ResolveCoord straight from the topology's point table instead of a
// per-node Coords clone. A full-copy View costs O(K² + |C|) per node —
// prohibitive at n=100k where the runtime builds one view per node — while
// SharedView is O(1).
//
// The price is a strict aliasing contract: callers must treat Members,
// Borders, BackupBorders and the Dense tables — one set per topology, shared
// by every view — as read-only, and the backing Topology must outlive the
// view; the hooks (Alive, BorderOverride) stay per view. CoordinateStateSize
// reports 0 (the Fig. 9(a) state accounting needs the materialized View).
// Every routing path uses SharedView; anything measuring per-node state
// keeps View.
func (t *Topology) SharedView(node int) (*NodeView, error) {
	if node < 0 || node >= t.N() {
		return nil, fmt.Errorf("hfc: view for node %d out of range [0,%d)", node, t.N())
	}
	c := t.ClusterOf(node)
	return &NodeView{
		Node:          node,
		ClusterID:     c,
		Members:       t.Members(c),
		NumClusters:   t.NumClusters(),
		Borders:       t.borders,
		BackupBorders: t.backups,
		topo:          t,
		ResolveCoord: func(u int) (coords.Point, bool) {
			if u < 0 || u >= len(t.coords.Points) {
				return nil, false
			}
			return t.coords.Points[u], true
		},
	}, nil
}

// Dist returns the embedded distance between two nodes whose coordinates
// the view holds. It returns an error when the view lacks either node —
// i.e., when routing code oversteps the node's legitimate knowledge.
func (v *NodeView) Dist(u, w int) (float64, error) {
	pu, err := v.coordOf(u)
	if err != nil {
		return 0, err
	}
	pw, err := v.coordOf(w)
	if err != nil {
		return 0, err
	}
	return coords.Dist(pu, pw), nil
}

// coordOf looks a node's coordinates up in the static view, falling back to
// the ResolveCoord hand-off for promoted borders the view does not hold.
func (v *NodeView) coordOf(u int) (coords.Point, error) {
	if p, ok := v.Coords[u]; ok {
		return p, nil
	}
	if v.ResolveCoord != nil {
		if p, ok := v.ResolveCoord(u); ok {
			return p, nil
		}
	}
	return nil, fmt.Errorf("hfc: node %d's view has no coordinates for node %d", v.Node, u)
}

// Border returns the preferred live border pair between two distinct
// clusters, oriented (inA, inB). Without a failure detector (Alive == nil)
// that is always the primary pair; with one, the first ranked pair whose
// endpoints are both live wins, and when every ranked pair has a crashed
// endpoint the primary is returned so callers still compute a path (sends
// to the crashed border surface as counted drops and RPC timeouts). It is
// the first live element of BorderRanked, found without building the list
// (TestBorderIsFirstLiveRankedPair).
func (v *NodeView) Border(a, b int) (inA, inB int, err error) {
	if v.BorderOverride != nil && a != b {
		if inA, inB, ok := v.BorderOverride(a, b); ok {
			return inA, inB, nil
		}
	}
	primary, backups, flip, err := v.rankedPairs(a, b)
	if err != nil {
		return 0, 0, err
	}
	if v.Alive != nil {
		if p := primary.oriented(flip); v.Alive(p[0]) && v.Alive(p[1]) {
			return p[0], p[1], nil
		}
		for _, bp := range backups {
			if p := bp.oriented(flip); v.Alive(p[0]) && v.Alive(p[1]) {
				return p[0], p[1], nil
			}
		}
	}
	p := primary.oriented(flip)
	return p[0], p[1], nil
}

// BorderRanked returns every border pair between two distinct clusters in
// preference order — primary first, then the node-disjoint backups — each
// oriented {inA, inB}. Liveness is not consulted.
func (v *NodeView) BorderRanked(a, b int) ([][2]int, error) {
	primary, backups, flip, err := v.rankedPairs(a, b)
	if err != nil {
		return nil, err
	}
	out := make([][2]int, 0, 1+len(backups))
	out = append(out, primary.oriented(flip))
	for _, bp := range backups {
		out = append(out, bp.oriented(flip))
	}
	return out, nil
}

// rankedPairs looks up the primary pair and the ranked backups between two
// distinct clusters. The tables store each pair as (Low, High) by cluster id;
// flip reports that a is the High side.
func (v *NodeView) rankedPairs(a, b int) (primary BorderPair, backups []BorderPair, flip bool, err error) {
	if a == b {
		return BorderPair{}, nil, false, fmt.Errorf("hfc: no border pair within a single cluster %d", a)
	}
	key := [2]int{a, b}
	if flip = a > b; flip {
		key = [2]int{b, a}
	}
	primary, ok := v.Borders[key]
	if !ok {
		return BorderPair{}, nil, false, fmt.Errorf("hfc: view has no border pair for clusters (%d,%d)", a, b)
	}
	return primary, v.BackupBorders[key], flip, nil
}

// oriented returns the pair as {inA, inB} for a query (a, b): stored order,
// or swapped when a is the High side.
func (p BorderPair) oriented(flip bool) [2]int {
	if flip {
		return [2]int{p.High, p.Low}
	}
	return [2]int{p.Low, p.High}
}

// CoordinateStateSize is the number of coordinate node-states the view
// stores — the quantity Fig. 9(a) reports per proxy. Own-cluster members
// and border proxies are deduplicated, since a node needs only one
// coordinate record per known node.
func (v *NodeView) CoordinateStateSize() int { return len(v.Coords) }

// KnownNodes returns the sorted IDs of all nodes whose coordinates the view
// holds.
func (v *NodeView) KnownNodes() []int {
	out := make([]int, 0, len(v.Coords))
	for id := range v.Coords {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}
