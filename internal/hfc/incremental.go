package hfc

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"hfc/internal/geo"
)

// DynamicStats counts the maintenance work a Dynamic has performed, so
// tests and benchmarks can assert that incremental updates really skip the
// untouched cluster pairs a full rebuild would rescan.
type DynamicStats struct {
	// Leaves and Rejoins count accepted membership changes.
	Leaves, Rejoins int
	// PairsChecked counts cluster pairs examined across all updates;
	// PairsRecomputed counts how many of those actually re-ran the
	// closest-pair scan.
	PairsChecked, PairsRecomputed int
}

// ErrNoChange is wrapped by the error Leave returns for a node that is
// already absent and Rejoin for one that is already present, so a caller
// whose own bookkeeping may lag the Dynamic's can tell "nothing to do" from
// a bad node id.
var ErrNoChange = errors.New("hfc: membership unchanged")

// Dynamic is the border authority under proxy churn (§4/§5): it applies the
// §3.3 definition — the border pair of two clusters is their closest pair
// of nodes — to the live membership, for any number of failures, and
// publishes the answer as an immutable DenseTables that every view it hands
// out (SharedView) reads. When a node leaves (crashes) or rejoins
// (recovers), only the cluster pairs whose election that node could have
// influenced are re-run, instead of rebuilding every pair from scratch.
//
// The incremental rule is provably equivalent to a full rebuild over the
// live membership: a departing node that is not an endpoint of a pair's
// border never won the argmin for that pair, and with ties broken toward
// smaller indices, removing a losing candidate cannot change the winner —
// so those pairs are skipped outright. Touched pairs re-run exactly the
// election Build uses. A pair with an emptied side has no election to run
// and keeps the pair Build chose until the cluster has a member again.
//
// Writers (Leave, Rejoin, Rebuild) serialise on the Dynamic's own mutex and
// publish by copy-on-write: a table, once stored, is never written again.
// Readers take no lock.
type Dynamic struct {
	topo *Topology

	// table is the live border table. Until the first membership change it
	// is the topology's own.
	table atomic.Pointer[DenseTables]
	// present[n] reports whether node n is currently live. Written under
	// mu, read without it.
	present []atomic.Bool

	mu sync.Mutex
	// members[c] lists cluster c's live members, sorted ascending — the
	// same order Build scans, so elections match a rebuild bit for bit.
	members [][]int // guarded by mu
	// geoOK enables the lazily built per-cluster geo indexes (geoIdx) the
	// re-elections query in place of brute scans; an entry is dropped
	// whenever its cluster's membership changes.
	geoOK  bool         // guarded by mu
	geoIdx []geo.Index  // guarded by mu
	stats  DynamicStats // guarded by mu
}

// NewDynamic wraps a built topology for incremental maintenance. The
// initial state (all nodes present) publishes the topology's own border
// table, so a churn-free Dynamic agrees with the static Build exactly.
func NewDynamic(t *Topology) *Dynamic {
	n := t.N()
	k := t.NumClusters()
	members := make([][]int, k)
	for c := range members {
		members[c] = append([]int(nil), t.Members(c)...)
	}
	d := &Dynamic{
		topo:    t,
		present: make([]atomic.Bool, n),
		members: members,
		geoOK:   n >= borderIndexMinN && geo.Finite(t.coords.Points),
		geoIdx:  make([]geo.Index, k),
	}
	for i := range d.present {
		d.present[i].Store(true)
	}
	d.table.Store(t.static)
	return d
}

// SharedView is Topology.SharedView attached to d: the view's Dense — and so
// its Border and every route resolved on it — reads the table d last
// published.
func (d *Dynamic) SharedView(node int) (*NodeView, error) {
	v, err := d.topo.SharedView(node)
	if err != nil {
		return nil, err
	}
	v.live = d
	return v, nil
}

// Table returns the live border table: for every cluster pair whose
// clusters both have a live member, their closest pair of live members.
// Immutable; a later membership change publishes a new one.
func (d *Dynamic) Table() *DenseTables { return d.table.Load() }

// indexForLocked returns the cached geo index over cluster c's live members,
// building it on first use after a membership change, or nil when the pair
// should elect brute-force (small overlay, small cluster, or a failed
// build, which disables indexing for the Dynamic's lifetime).
func (d *Dynamic) indexForLocked(c int) geo.Index {
	if !d.geoOK {
		return nil
	}
	if d.geoIdx[c] != nil {
		return d.geoIdx[c]
	}
	if len(d.members[c]) < clusterIndexMinSize {
		return nil
	}
	idx, err := geo.NewIndex(d.topo.coords.Points, d.members[c], geo.Auto)
	if err != nil {
		d.geoOK = false
		return nil
	}
	d.geoIdx[c] = idx
	return idx
}

// Present reports whether a node is currently live.
func (d *Dynamic) Present(node int) bool {
	return node >= 0 && node < len(d.present) && d.present[node].Load()
}

// Members returns a copy of cluster c's live members, sorted.
func (d *Dynamic) Members(c int) []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]int(nil), d.members[c]...)
}

// Stats returns the cumulative maintenance counters.
func (d *Dynamic) Stats() DynamicStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// electLocked writes the border pair of clusters lo < hi over the live
// membership into t, a table not yet published: the §3.3 election, or the
// pair Build chose when either cluster has no live member.
func (d *Dynamic) electLocked(t *DenseTables, lo, hi int) error {
	s := d.topo.static
	pair := BorderPair{Low: int(s.BorderInA[lo*s.K+hi]), High: int(s.BorderInA[hi*s.K+lo])}
	if len(d.members[lo]) != 0 && len(d.members[hi]) != 0 {
		var err error
		pair, err = electBorders(d.topo.coords, d.members[lo], d.members[hi], d.indexForLocked(hi))
		if err != nil {
			return fmt.Errorf("hfc: recomputing border pair (%d,%d): %w", lo, hi, err)
		}
	}
	t.setPair(lo, hi, pair, d.topo.Dist(pair.Low, pair.High))
	return nil
}

// reelectLocked repairs the pairs of cluster c after its membership changed and
// publishes the result. leaver is the node that just left, or -1 after a
// rejoin: a departure re-runs only the elections the node had won — or all
// of c's when it emptied the cluster — while a returning node can become the
// closest cross pair toward any cluster, so all of c's pairs are re-run. The
// published table is copied on the first pair that needs writing; a
// departure that touches no pair publishes nothing.
func (d *Dynamic) reelectLocked(c, leaver int) error {
	cur := d.table.Load()
	next := cur
	for o := 0; o < cur.K; o++ {
		if o == c {
			continue
		}
		d.stats.PairsChecked++
		if leaver >= 0 && len(d.members[c]) != 0 && int(cur.BorderInA[c*cur.K+o]) != leaver {
			continue
		}
		d.stats.PairsRecomputed++
		if next == cur {
			next = cur.clone()
		}
		if err := d.electLocked(next, min(c, o), max(c, o)); err != nil {
			return err
		}
	}
	if next != cur {
		d.table.Store(next)
	}
	return nil
}

// Leave removes a live node (crash or departure, §5.2) and repairs the
// border pairs of its cluster. Leaving while already absent is an error
// (ErrNoChange).
func (d *Dynamic) Leave(node int) error {
	if node < 0 || node >= len(d.present) {
		return fmt.Errorf("hfc: leave of node %d out of range [0,%d)", node, len(d.present))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.present[node].Load() {
		return fmt.Errorf("hfc: node %d is already absent: %w", node, ErrNoChange)
	}
	d.present[node].Store(false)
	c := d.topo.ClusterOf(node)
	mem := d.members[c]
	i := sort.SearchInts(mem, node)
	d.members[c] = append(mem[:i], mem[i+1:]...)
	d.geoIdx[c] = nil
	d.stats.Leaves++
	return d.reelectLocked(c, node)
}

// Rejoin restores an absent node to its home cluster (recovery, §5.2) and
// re-elects every border pair of that cluster. Rejoining while present is an
// error (ErrNoChange).
func (d *Dynamic) Rejoin(node int) error {
	if node < 0 || node >= len(d.present) {
		return fmt.Errorf("hfc: rejoin of node %d out of range [0,%d)", node, len(d.present))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.present[node].Load() {
		return fmt.Errorf("hfc: node %d is already present: %w", node, ErrNoChange)
	}
	d.present[node].Store(true)
	c := d.topo.ClusterOf(node)
	mem := d.members[c]
	i := sort.SearchInts(mem, node)
	d.members[c] = append(mem[:i], append([]int{node}, mem[i:]...)...)
	d.geoIdx[c] = nil
	d.stats.Rejoins++
	return d.reelectLocked(c, -1)
}

// DynamicSnapshot is a deep copy of a Dynamic's live border state, in a
// directly comparable form: the chaos property tests assert a healed
// overlay's snapshot is DeepEqual to a freshly rebuilt one.
type DynamicSnapshot struct {
	// Members lists each cluster's live members, sorted ascending.
	Members [][]int
	// BorderInA is the published table's: BorderInA[a*K+b] is the border
	// proxy of cluster a toward cluster b, -1 when a == b.
	BorderInA []int32
}

// Snapshot deep-copies the Dynamic's live membership and border table.
func (d *Dynamic) Snapshot() DynamicSnapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := DynamicSnapshot{
		Members:   make([][]int, len(d.members)),
		BorderInA: append([]int32(nil), d.table.Load().BorderInA...),
	}
	for c, mem := range d.members {
		s.Members[c] = append([]int(nil), mem...)
	}
	return s
}

// Rebuild re-elects every cluster pair from the live membership, ignoring
// the incremental state. It is the reference the equivalence tests compare
// against and the baseline the maintenance benchmark measures incremental
// updates over.
func (d *Dynamic) Rebuild() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	k := d.topo.NumClusters()
	next := newDenseTables(k, d.topo.coords.Points)
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			if err := d.electLocked(next, a, b); err != nil {
				return err
			}
		}
	}
	d.table.Store(next)
	return nil
}
