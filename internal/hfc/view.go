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
	// Borders maps every normalized cluster pair {lo, hi} to the border
	// pair Build elected for it: the Fig. 4 table as distributed. Border
	// and every routing path read the pair in force from Dense.
	Borders map[[2]int]BorderPair
	// Coords holds the coordinates the node keeps: own cluster members
	// and all border proxies.
	Coords map[int]coords.Point
	// Alive, when non-nil, is the node's failure detector for the proxies
	// it picks itself — providers and resolvers. Nil means every node is
	// presumed live. Which pair joins two clusters is not its business:
	// that is the table Dense returns.
	Alive func(node int) bool
	// ResolveCoord, when non-nil, supplies coordinates for nodes outside
	// the view's static entitlement — the Fig. 4 coordinate hand-off that
	// accompanies a re-elected border's announcement. Dist consults it
	// only after Coords misses.
	ResolveCoord func(node int) (coords.Point, bool)

	// dense is what Dense returns on a view no Dynamic maintains: the
	// topology's table on a SharedView, and on a materialized View its own,
	// built on first use from the fields above, which must not be mutated
	// after that.
	dense atomic.Pointer[DenseTables]
	// live is set on a view attached to a Dynamic (Dynamic.SharedView).
	live *Dynamic
}

// DenseTables is the border table in the one shape readers see: for every
// cluster pair, the pair of proxies that joins it and the length of the
// link between them, as flat K×K arrays. A published table is immutable —
// Build fills the topology's once, a Dynamic replaces the live one with an
// edited copy — so a reader loads the pointer once and indexes it for as
// long as it needs one consistent answer.
type DenseTables struct {
	// K is the cluster count the square tables are sized for.
	K int
	// BorderInA[a*K+b] is the border proxy of cluster a toward cluster b,
	// or -1 when a == b or the view has no pair for (a, b).
	BorderInA []int32
	// Ext[a*K+b] is the embedded length of the external link between
	// clusters a and b: 0 where BorderInA is -1, NaN when the view lacks
	// an endpoint's coordinate.
	Ext []float64
	// Pts[id] is node id's coordinate, nil when the view does not hold
	// it. Indexed by node id; a materialized View's covers its cluster's
	// members and every border proxy, a topology's or a Dynamic's aliases
	// the topology's point table.
	Pts []coords.Point
}

// newDenseTables returns a table for k clusters with no pair set yet.
func newDenseTables(k int, pts []coords.Point) *DenseTables {
	t := &DenseTables{K: k, BorderInA: make([]int32, k*k), Ext: make([]float64, k*k), Pts: pts}
	for i := range t.BorderInA {
		t.BorderInA[i] = -1
	}
	return t
}

// clone returns a copy a writer may edit and then publish; Pts stays shared.
func (t *DenseTables) clone() *DenseTables {
	return &DenseTables{
		K:         t.K,
		BorderInA: append([]int32(nil), t.BorderInA...),
		Ext:       append([]float64(nil), t.Ext...),
		Pts:       t.Pts,
	}
}

// setPair records p, with its link length, as the border pair of clusters
// a < b.
func (t *DenseTables) setPair(a, b int, p BorderPair, ext float64) {
	t.BorderInA[a*t.K+b], t.BorderInA[b*t.K+a] = int32(p.Low), int32(p.High)
	t.Ext[a*t.K+b], t.Ext[b*t.K+a] = ext, ext
}

// Dense returns the border table in force for this view: the table its
// Dynamic last published when it is attached to one, the topology's on any
// other SharedView, and on a materialized View its own, bounded by its
// Fig. 4 entitlement and built on first use (the build is idempotent;
// concurrent first calls may build twice and either result wins the store).
// The returned table is shared and read-only. Two calls may return
// different tables on an attached view; a caller that needs one consistent
// answer across several lookups calls Dense once.
func (v *NodeView) Dense() *DenseTables {
	if v.live != nil {
		return v.live.table.Load()
	}
	if t := v.dense.Load(); t != nil {
		return t
	}
	t := v.buildDense()
	v.dense.Store(t)
	return t
}

// buildDense materializes the table from the view's maps. Border pairs are
// walked by cluster-pair key (not map iteration) so the build is
// deterministic.
func (v *NodeView) buildDense() *DenseTables {
	t := newDenseTables(max(v.NumClusters, 0), nil)
	k := t.K
	// Pts covers every node whose coordinate a routing pass may ask for —
	// own-cluster members (the tail hop ends at v.Node) plus all border
	// proxies — and reaches to the largest such id.
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
			pair, ok := v.Borders[[2]int{lo, hi}]
			if !ok || pair.Low < 0 || pair.High < 0 {
				continue
			}
			ext := math.NaN()
			if pl, ph := pt(pair.Low), pt(pair.High); pl != nil && ph != nil {
				ext = coords.Dist(pl, ph)
			}
			t.setPair(lo, hi, pair, ext)
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
		Node:        node,
		ClusterID:   c,
		Members:     append([]int(nil), t.Members(c)...),
		NumClusters: t.NumClusters(),
		Borders:     make(map[[2]int]BorderPair, len(t.borders)),
		Coords:      make(map[int]coords.Point),
	}
	for k, pair := range t.borders {
		v.Borders[k] = pair
	}
	for _, m := range v.Members {
		v.Coords[m] = t.coords.Points[m].Clone()
	}
	for _, b := range t.borderNodes {
		v.Coords[b] = t.coords.Points[b].Clone()
	}
	return v, nil
}

// SharedView materializes a node's view without copying: Members aliases
// the topology's membership slice, Borders aliases the topology's own map
// and Dense returns the topology's table, with coordinates served on demand
// through ResolveCoord straight from the topology's point table instead of
// a per-node Coords clone. A full-copy View costs O(K² + |C|) per node —
// prohibitive at n=100k where the runtime builds one view per node — while
// SharedView is O(1).
//
// The price is a strict aliasing contract: callers must treat Members,
// Borders and the Dense table — one per topology, shared by every view —
// as read-only, and the backing Topology must outlive the view; the Alive
// hook stays per view. CoordinateStateSize reports 0 (the Fig. 9(a) state
// accounting needs the materialized View). Every routing path uses
// SharedView; anything measuring per-node state keeps View. The view
// answers with the borders Build elected whoever has failed since; a
// caller that tracks failures takes its views from Dynamic.SharedView.
func (t *Topology) SharedView(node int) (*NodeView, error) {
	if node < 0 || node >= t.N() {
		return nil, fmt.Errorf("hfc: view for node %d out of range [0,%d)", node, t.N())
	}
	c := t.ClusterOf(node)
	v := &NodeView{
		Node:        node,
		ClusterID:   c,
		Members:     t.Members(c),
		NumClusters: t.NumClusters(),
		Borders:     t.borders,
		ResolveCoord: func(u int) (coords.Point, bool) {
			if u < 0 || u >= len(t.coords.Points) {
				return nil, false
			}
			return t.coords.Points[u], true
		},
	}
	v.dense.Store(t.static)
	return v, nil
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

// Border returns the border pair in force between two distinct clusters,
// oriented (inA, inB): two reads of Dense. On a view attached to a Dynamic
// that is the closest pair of live members; on any other view, the pair
// Build elected.
//
//hfc:hotpath budget=0
func (v *NodeView) Border(a, b int) (inA, inB int, err error) {
	if a == b {
		//hfcvet:ignore hotalloc cold error path: no caller asks for a cluster's border with itself
		return 0, 0, fmt.Errorf("hfc: no border pair within a single cluster %d", a)
	}
	t := v.Dense()
	if a < 0 || a >= t.K || b < 0 || b >= t.K || t.BorderInA[a*t.K+b] < 0 {
		//hfcvet:ignore hotalloc cold error path: the view and the caller disagree on K
		return 0, 0, fmt.Errorf("hfc: view has no border pair for clusters (%d,%d)", a, b)
	}
	return int(t.BorderInA[a*t.K+b]), int(t.BorderInA[b*t.K+a]), nil
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
