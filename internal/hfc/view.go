package hfc

import (
	"fmt"

	"hfc/internal/coords"
)

// NodeView is the partial-global-state a single proxy holds after the
// election-winner proxy P distributes the topology (Fig. 4): its own
// cluster's ID and membership and the border table it reads, whose
// coordinate table covers the nodes it may measure. Hierarchical routing at
// a node must work from this view alone.
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
	// Alive, when non-nil, is the node's failure detector for the proxies
	// it picks itself — providers and resolvers. Nil means every node is
	// presumed live. Which pair joins two clusters is not its business:
	// that is the table Dense returns.
	Alive func(node int) bool

	// table is what Dense returns on a view no Dynamic maintains: the
	// topology's own on a SharedView, the entitlement-bounded one on a View.
	table *DenseTables
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
	// or -1 when a == b.
	BorderInA []int32
	// Ext[a*K+b] is the embedded length of the external link between
	// clusters a and b, 0 where BorderInA is -1.
	Ext []float64
	// Pts[id] is node id's coordinate, nil when the view may not measure
	// it. Indexed by node id and aliasing the topology's point table: whole
	// on a topology's or a Dynamic's table, non-nil on a View's only at its
	// cluster's members and every border proxy.
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
// Dynamic last published when it is attached to one, and otherwise the
// table it was built with — the topology's on a SharedView, the
// entitlement-bounded one on a View. The returned table is shared and
// read-only. Two calls may return different tables on an attached view; a
// caller that needs one consistent answer across several lookups calls
// Dense once.
func (v *NodeView) Dense() *DenseTables {
	if v.live != nil {
		return v.live.table.Load()
	}
	return v.table
}

// SharedView is node's view over the topology's own tables: Members aliases
// the topology's membership slice and Dense returns the topology's table,
// whose Pts is the whole point table. It allocates only the view, so the
// runtime can hold one per node at n=100k.
//
// The price is an aliasing contract: callers must treat Members and the
// Dense table — one per topology, shared by every view — as read-only, and
// the backing Topology must outlive the view; the Alive hook stays per view.
// Every routing path uses SharedView. The view answers with the borders
// Build elected whoever has failed since; a caller that tracks failures
// takes its views from Dynamic.SharedView, whose tables cover every node's
// coordinate too, so a re-elected border can be measured without a hand-off.
func (t *Topology) SharedView(node int) (*NodeView, error) {
	if node < 0 || node >= t.N() {
		return nil, fmt.Errorf("hfc: view for node %d out of range [0,%d)", node, t.N())
	}
	c := t.ClusterOf(node)
	return &NodeView{
		Node:        node,
		ClusterID:   c,
		Members:     t.Members(c),
		NumClusters: t.NumClusters(),
		table:       t.static,
	}, nil
}

// View is SharedView bounded to node's Fig. 4 entitlement: its table shares
// the topology's border arrays, but its Pts holds only the coordinates of
// the node's cluster members and of every border proxy, so Dist — and any
// route resolved on the view — errors on every other node. The coordinates
// alias the topology's point table. It costs one N-slot slice and nothing
// that grows with K; it is for tests that prove routing stays inside the
// entitlement. Fig. 9(a) counts the same set with CoordinateStateSize.
func (t *Topology) View(node int) (*NodeView, error) {
	v, err := t.SharedView(node)
	if err != nil {
		return nil, err
	}
	pts := make([]coords.Point, t.N())
	for _, m := range v.Members {
		pts[m] = t.coords.Points[m]
	}
	for _, b := range t.borderNodes {
		pts[b] = t.coords.Points[b]
	}
	v.table = &DenseTables{K: t.static.K, BorderInA: t.static.BorderInA, Ext: t.static.Ext, Pts: pts}
	return v, nil
}

// CoordinateStateSize is the number of coordinate records node keeps under
// Fig. 4 — the quantity Fig. 9(a) reports per proxy: its cluster's members
// and every border proxy, each once. The cluster's own border proxies are
// members already, so the count is |C| + |B| − |borders of C|.
func (t *Topology) CoordinateStateSize(node int) int {
	c := t.ClusterOf(node)
	return len(t.Members(c)) + len(t.borderNodes) - len(t.BorderNodesOf(c))
}

// Dist returns the embedded distance between two nodes whose coordinates
// the view's table holds. It returns an error when the view lacks either
// node — i.e., when routing code oversteps the node's legitimate knowledge.
func (v *NodeView) Dist(u, w int) (float64, error) {
	pts := v.Dense().Pts
	for _, id := range [2]int{u, w} {
		if id < 0 || id >= len(pts) || pts[id] == nil {
			return 0, fmt.Errorf("hfc: node %d's view has no coordinates for node %d", v.Node, id)
		}
	}
	return coords.Dist(pts[u], pts[w]), nil
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
